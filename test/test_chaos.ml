(* Chaos suite: every protocol under seeded randomized fault schedules
   (message drop/duplication/extra delay, link partitions, server
   crash/restart), each run checked strictly. A failing seed prints the
   one-command replay line. Also: replaying a seed reproduces a
   byte-identical trace (digest equality), and the deliberately broken
   NCC-noRTC variant is caught by the same machinery. *)

module Chaos = Harness.Chaos

let n_seeds = 20

let workload () = Workload.Google_f1.make ()

(* (cli name, protocol, crashes allowed, base config override) *)
let protocols =
  let replicated =
    Some
      {
        Chaos.base_default with
        Harness.Runner.replicas_per_server = 2;
        (* replication triples the node count; trim the load a little
           so the suite stays fast *)
        offered_load = 800.0;
      }
  in
  [
    ("NCC", Ncc.protocol, true, None);
    ("NCC-RW", Ncc.protocol_rw, true, None);
    ("NCC-noSR", Ncc.protocol_no_smart_retry, true, None);
    ("NCC-noAAT", Ncc.protocol_no_async_aware, true, None);
    ("dOCC", Baselines.docc, true, None);
    ("d2PL-NW", Baselines.d2pl_no_wait, true, None);
    ("d2PL-WW", Baselines.d2pl_wound_wait, true, None);
    ("Janus-CC", Baselines.janus_cc, true, None);
    ("TAPIR-CC", Baselines.tapir_cc, true, None);
    ("MVTO", Baselines.mvto, true, None);
    (* replicated: network faults only; replica-crash failover is
       exercised by the dedicated Raft tests *)
    ("NCC-R", Ncc_r.protocol, false, replicated);
    ("NCC-R-def", Ncc_r.protocol_deferred, false, replicated);
  ]

let survives_chaos (name, proto, allow_crashes, base) =
  let test () =
    let failures = ref [] in
    let total_committed = ref 0 in
    for seed = 1 to n_seeds do
      let r = Chaos.run ~allow_crashes ?base proto (workload ()) ~seed in
      total_committed := !total_committed + r.Chaos.committed;
      if not r.Chaos.ok then failures := (seed, r.Chaos.check) :: !failures
    done;
    (* liveness: faults must not have starved the runs entirely *)
    Alcotest.(check bool)
      "some transactions committed" true
      (!total_committed > n_seeds * 10);
    match List.rev !failures with
    | [] -> ()
    | (seed, check) :: _ as all ->
      Alcotest.fail
        (Printf.sprintf "%d/%d seeds failed; first: seed %d: %s\n  replay: %s"
           (List.length all) n_seeds seed check
           (Chaos.replay_command ~protocol:name ~workload:"google-f1" ~seed))
  in
  Alcotest.test_case (Printf.sprintf "%s survives %d seeds" name n_seeds) `Quick test

let replay_reproduces_digest () =
  let once () = Chaos.run Ncc.protocol (workload ()) ~seed:7 in
  let a = once () and b = once () in
  Alcotest.(check string) "same digest" a.Chaos.digest b.Chaos.digest;
  Alcotest.(check int) "same commit count" a.Chaos.committed b.Chaos.committed;
  (* different seeds take different paths *)
  let c = Chaos.run Ncc.protocol (workload ()) ~seed:8 in
  Alcotest.(check bool) "different seed, different trace" true
    (c.Chaos.digest <> a.Chaos.digest)

(* Full trace digests, pinned byte for byte. Replay equality and the
   --jobs parity check compare a run with itself; this catches a digest
   that changes the same way everywhere (say, a reordered or re-encoded
   event). The baseline golden covers their fault paths: stale rounds,
   duplicate replies, and the timeout/cancel paths. *)
let digests_pinned ~name protocols seeds () =
  let line (label, proto) seed =
    let r = Chaos.run proto (workload ()) ~seed in
    Printf.sprintf "%sseed %d committed=%d digest=%s\n" label seed r.Chaos.committed
      r.Chaos.digest
  in
  Golden.check ~name
    (String.concat ""
       (List.concat_map (fun p -> List.map (line p) seeds) protocols))

let baselines_pinned =
  [
    ("dOCC ", Baselines.docc);
    ("d2PL-NW ", Baselines.d2pl_no_wait);
    ("d2PL-WW ", Baselines.d2pl_wound_wait);
    ("Janus-CC ", Baselines.janus_cc);
    ("TAPIR-CC ", Baselines.tapir_cc);
    ("MVTO ", Baselines.mvto);
  ]

(* The timestamp-inversion pitfall, demonstrated: with response timing
   control disabled the strict checker must catch violations across a
   modest seed sweep (write-heavy workload to maximize contention). *)
let no_rtc_is_caught () =
  let w = Workload.Google_f1.make_wf ~write_fraction:0.30 () in
  let caught = ref 0 in
  for seed = 1 to 10 do
    let r = Chaos.run Ncc.protocol_no_rtc w ~seed in
    if not r.Chaos.ok then incr caught
  done;
  if !caught = 0 then
    Alcotest.fail "NCC without RTC passed strict checking on all 10 chaos seeds"

let suite =
  List.map survives_chaos protocols
  @ [
      Alcotest.test_case "replay reproduces the trace digest" `Quick
        replay_reproduces_digest;
      Alcotest.test_case "NCC digests match the golden" `Quick
        (digests_pinned ~name:"chaos_digests_ncc_f1.txt" [ ("", Ncc.protocol) ]
           [ 1; 2; 3; 4; 5 ]);
      Alcotest.test_case "baseline digests match the golden" `Quick
        (digests_pinned ~name:"chaos_digests_baselines_f1.txt" baselines_pinned
           [ 1; 2; 3 ]);
      Alcotest.test_case "NCC-noRTC is caught by the strict checker" `Quick
        no_rtc_is_caught;
    ]
