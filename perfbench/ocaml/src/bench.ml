(* One measured run in this process, printed as one JSON object:

     bench.exe measure WORKLOAD SEED plain|traced|traced-nocheck
     bench.exe setup WORKLOAD SEED SECONDS

   [measure] runs every case of the workload back to back and reports
   their sums (host time, commits, allocation, per-layer self times)
   with the correctness checks; [setup] repeats the workload's set-up
   for SECONDS, at least five times, and reports every sample. Both
   also report {!Calib.tick_ns} samples taken alongside (plain runs
   only), from which run.py scales host times to a fixed host speed.
   perfbench/run.py starts this program afresh for each measured run,
   since the heap's high-water mark only ever grows within a process. *)

open Perfbench
module J = Obs.Jsonw

let usage () =
  prerr_endline
    "usage: bench.exe measure WORKLOAD SEED plain|traced|traced-nocheck\n\
    \       bench.exe setup WORKLOAD SEED SECONDS";
  exit 2

let cases_of w seed =
  match int_of_string_opt seed with
  | None -> usage ()
  | Some seed -> (
    try Cases.cases ~seed w
    with Invalid_argument m ->
      prerr_endline m;
      exit 2)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let measure_json mode (cases : Cases.case list) (runs : Measure.run list) =
  let lat = Array.concat (List.map (fun (r : Measure.run) -> r.latencies) runs) in
  Array.sort Float.compare lat;
  let res f = sum (fun (r : Measure.run) -> f r.result) runs in
  let errors =
    List.concat_map
      (fun (r : Measure.run) ->
        List.map
          (fun e -> r.result.Harness.Runner.protocol ^ ": " ^ e)
          (Measure.errors mode r))
      runs
  in
  let base =
    [
      ("errors", J.List (List.map (fun e -> J.Str e) errors));
      ( "verdicts",
        J.List
          (List.map (fun (r : Measure.run) -> J.Str r.result.Harness.Runner.check_result) runs)
      );
      ( "fingerprints",
        J.List
          (List.map
             (fun (r : Measure.run) ->
               J.Obj
                 (List.map (fun (k, v) -> (k, J.Str v)) (Measure.fingerprint r.result)))
             runs) );
      ("digests", J.List (List.map (fun (r : Measure.run) -> J.Str r.digest) runs));
      ("host_ns", J.Int (sum (fun (r : Measure.run) -> r.host_ns) runs));
      ( "ticks_ns",
        J.List
          (List.concat_map
             (fun (r : Measure.run) -> List.map (fun s -> J.Int s) r.ticks_ns)
             runs) );
      ("committed", J.Int (res (fun r -> r.Harness.Runner.committed)));
      ("attempts", J.Int (res (fun r -> r.Harness.Runner.attempts)));
      ("messages", J.Int (res (fun r -> r.Harness.Runner.messages)));
      ("arrivals", J.Int (sum (fun (r : Measure.run) -> r.arrivals) runs));
      ("checker_commits", J.Float (sumf (fun (r : Measure.run) -> r.checker_commits) runs));
      ( "sim_window_s",
        J.Float (sumf (fun (c : Cases.case) -> c.config.Harness.Runner.duration) cases) );
      ("lat_p50_s", J.Float (Measure.percentile lat 0.5));
      ("lat_p99_s", J.Float (Measure.percentile lat 0.99));
      ("minor_words", J.Float (sumf (fun (r : Measure.run) -> r.minor_words) runs));
      ("promoted_words", J.Float (sumf (fun (r : Measure.run) -> r.promoted_words) runs));
      ("minor_collections", J.Int (sum (fun (r : Measure.run) -> r.minor_collections) runs));
      ("major_collections", J.Int (sum (fun (r : Measure.run) -> r.major_collections) runs));
      ( "top_heap_words",
        J.Int (List.fold_left (fun m (r : Measure.run) -> max m r.top_heap_words) 0 runs) );
      ("events", J.Int (sum (fun (r : Measure.run) -> r.events) runs));
      ("versions", J.Int (sum (fun (r : Measure.run) -> r.versions) runs));
      ( "checker_live_hw",
        J.Float
          (List.fold_left (fun m (r : Measure.run) -> Float.max m r.checker_live_hw) 0.0 runs)
      );
      ("checker_epochs", J.Float (sumf (fun (r : Measure.run) -> r.checker_epochs) runs));
    ]
  in
  let probes = List.filter_map (fun (r : Measure.run) -> r.probe) runs in
  let traced =
    match probes with
    | [] -> []
    | _ ->
      let psum f = sum f probes in
      [
        ( "layers",
          J.Obj
            (List.map
               (fun l ->
                 let i = Probe.index l in
                 ( Probe.name l,
                   J.Obj
                     [
                       ("self_ns", J.Int (psum (fun p -> p.Probe.self_ns.(i))));
                       ("calls", J.Int (psum (fun p -> p.Probe.calls.(i))));
                     ] ))
               Probe.layers) );
        ("idle_ns", J.Int (psum (fun p -> p.Probe.idle_ns)));
        ("total_ns", J.Int (psum (fun p -> p.Probe.total_ns)));
        ("gc_minor_ns", J.Int (psum (fun p -> p.Probe.gc_minor_ns)));
        ("gc_major_ns", J.Int (psum (fun p -> p.Probe.gc_major_ns)));
        ( "pending_hw",
          J.Int (List.fold_left (fun m p -> max m p.Probe.pending_hw) 0 probes) );
      ]
  in
  J.Obj (base @ traced)

let () =
  match Array.to_list Sys.argv with
  | [ _; "measure"; w; seed; mode ] ->
    let mode =
      match mode with
      | "plain" -> Measure.Plain
      | "traced" -> Measure.Traced
      | "traced-nocheck" -> Measure.Traced_nocheck
      | _ -> usage ()
    in
    let cases = cases_of w seed in
    let runs = List.map (Measure.run mode) cases in
    print_endline (J.to_string (measure_json mode cases runs))
  | [ _; "setup"; w; seed; secs ] ->
    let cases = cases_of w seed in
    let secs = match float_of_string_opt secs with Some s -> s | None -> usage () in
    let t0 = Probe.now_ns () in
    (* Each sample starts from a compacted heap, as a fresh process
       would, between two ticks, which pair with it in run.py. *)
    let rec loop acc n =
      if n >= 5 && float_of_int (Probe.now_ns () - t0) /. 1e9 >= secs then List.rev acc
      else begin
        Gc.compact ();
        let before = Calib.tick_ns () in
        let s = sum Measure.setup_ns cases in
        loop ((s, before + Calib.tick_ns ()) :: acc) (n + 1)
      end
    in
    let samples = loop [] 0 in
    let ints f = J.List (List.map (fun x -> J.Int (f x)) samples) in
    print_endline
      (J.to_string
         (J.Obj [ ("samples_ns", ints fst); ("tick_pairs_ns", ints snd) ]))
  | _ -> usage ()
