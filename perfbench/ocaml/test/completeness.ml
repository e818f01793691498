(* Wrapper-completeness checks on a tiny config of each benchmark
   workload: the wrappers see every message and every submission the
   runner counts, the residual is never negative, every layer the
   workload exercises records calls, and neither the wrappers nor the
   unchecked twin move the run's result. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

(* Layers every workload reaches; chaos adds the request-timeout path. *)
let exercised w =
  let base = Probe.[ Submit; Server_handle; Client_handle; Send; Report; Gen ] in
  if w = "f1-chaos" then Probe.Cancel :: base else base

let check_workload w =
  let calls = Array.make Probe.n_layers 0 in
  List.iter
    (fun (c : Cases.case) ->
      let plain = Measure.run Measure.Plain c in
      let traced = Measure.run ~gc_events:false Measure.Traced c in
      let twin = Measure.run ~gc_events:false Measure.Traced_nocheck c in
      let res = traced.result in
      let label what = Printf.sprintf "%s/%s: %s" w res.Harness.Runner.protocol what in
      List.iter
        (fun (mode, r) -> List.iter (fun e -> check (label e) false) (Measure.errors mode r))
        [ (Measure.Plain, plain); (Measure.Traced, traced); (Measure.Traced_nocheck, twin) ];
      let p = Option.get traced.probe in
      Array.iteri (fun i n -> calls.(i) <- calls.(i) + n) p.Probe.calls;
      let n l = p.Probe.calls.(Probe.index l) in
      check (label "net.send calls = result.messages") (n Probe.Send = res.messages);
      check (label "protocol.submit calls = result.attempts") (n Probe.Submit = res.attempts);
      let residual = p.Probe.total_ns - Array.fold_left ( + ) 0 p.Probe.self_ns in
      check (label "residual is never negative") (residual >= 0 && residual = p.Probe.idle_ns);
      check (label "traced result = untraced result")
        (Measure.fingerprint res = Measure.fingerprint plain.result && traced.digest = plain.digest);
      let drop = List.remove_assoc "check_result" in
      check (label "unchecked twin differs only in check_result")
        (drop (Measure.fingerprint twin.result) = drop (Measure.fingerprint plain.result)))
    (Cases.cases ~size:Cases.Tiny ~seed:1 w);
  List.iter
    (fun l ->
      check (Printf.sprintf "%s: %s records calls" w (Probe.name l)) (calls.(Probe.index l) > 0))
    (exercised w)

let () =
  List.iter check_workload Cases.names;
  if !failures > 0 then exit 1;
  print_endline "perfbench completeness: ok"
