(* NCC server unit tests: non-blocking execution, response timing
   control (D1-D3, fix-reads-locally, early abort), smart retry, the
   read-only fast path, and recovery — all against a hand-built rig
   where messages to the server loop back through the engine and
   messages to clients are captured. *)

open Kernel
module Msg = Ncc.Msg
module Server = Ncc.Server

type rig = {
  engine : Sim.Engine.t;
  server : Server.t;
  sent : (Types.node_id * Msg.msg) list ref;  (* client-bound, oldest first *)
}

let mk_rig ?(cfg = Msg.default_config) () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let server_ref = ref None in
  let ctx =
    {
      Cluster.Net.self = 0;
      engine;
      rng = Sim.Rng.create 1;
      topo = Cluster.Topology.make ~n_servers:1 ~n_clients:2 ();
      clock = Sim.Clock.perfect;
      send =
        (fun ~dst msg ->
          if Kernel.Types.node_eq dst 0 then
            (* loopback for recovery traffic *)
            Sim.Engine.schedule engine ~delay:1e-4 (fun () ->
                Server.handle (Option.get !server_ref) ~src:0 msg)
          else sent := !sent @ [ (dst, msg) ]);
      timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
    }
  in
  let server = Server.create cfg ctx in
  server_ref := Some server;
  { engine; server; sent }

let ts t = Ts.make ~time:t ~cid:9

let exec ?(src = 1) ?(wire = 1) ?(t = 10) ?(ro = false) ?(tro = Ts.zero) rig ops =
  Server.handle rig.server ~src
    (Msg.Exec
       {
         x_wire = wire;
         x_round = 1;
         x_ops = ops;
         x_ts = ts t;
         x_ro = ro;
         x_tro = tro;
         x_client_ns = 0;
         x_backup = 0;
         x_cohorts = [ 0 ];
         x_expected_ops = List.length ops;
         x_is_last = true;
         x_bytes = 64;
       })

let decide ?(wire = 1) rig commit =
  Server.handle rig.server ~src:1 (Msg.Decide { d_wire = wire; d_commit = commit })

let replies_for rig wire =
  List.filter_map
    (fun (_, m) ->
      match m with
      | Msg.Exec_reply r when r.Msg.e_wire = wire -> Some r
      | _ -> None)
    !(rig.sent)

let the_reply rig wire =
  match replies_for rig wire with
  | [ r ] -> r
  | [] -> Alcotest.fail (Printf.sprintf "no reply for wire %d" wire)
  | _ -> Alcotest.fail (Printf.sprintf "multiple replies for wire %d" wire)

let write_executes_immediately () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 42) ];
  let r = the_reply rig 1 in
  Alcotest.(check bool) "ok flag" true (r.Msg.e_flag = Msg.Ok);
  (match r.Msg.e_results with
   | [ res ] ->
     Alcotest.(check bool) "tw = pre-assigned ts" true (Ts.equal res.Msg.r_tw (ts 10));
     Alcotest.(check bool) "tr = tw" true (Ts.equal res.Msg.r_tr (ts 10));
     Alcotest.(check bool) "is write" true res.Msg.r_is_write
   | _ -> Alcotest.fail "one result expected")

let read_of_committed_is_immediate () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Read 5 ];
  let r = the_reply rig 1 in
  (match r.Msg.e_results with
   | [ res ] ->
     Alcotest.(check int) "initial value" 0 res.Msg.r_value;
     Alcotest.(check bool) "tr refined to ts" true (Ts.equal res.Msg.r_tr (ts 10))
   | _ -> Alcotest.fail "one result expected")

(* D1: a read of an undecided version is withheld until the writer
   commits. *)
let d1_read_waits_for_writer () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 42) ];
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Read 5 ];
  Alcotest.(check int) "reader withheld" 0 (List.length (replies_for rig 2));
  decide rig ~wire:1 true;
  let r = the_reply rig 2 in
  (match r.Msg.e_results with
   | [ res ] -> Alcotest.(check int) "sees committed value" 42 res.Msg.r_value
   | _ -> Alcotest.fail "one result")

(* D1 + fix-reads-locally: the writer aborts, the read is re-executed
   against the restored version (no cascading abort). *)
let d1_abort_fixes_read () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 42) ];
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Read 5 ];
  decide rig ~wire:1 false;
  let r = the_reply rig 2 in
  Alcotest.(check bool) "still ok (not aborted)" true (r.Msg.e_flag = Msg.Ok);
  (match r.Msg.e_results with
   | [ res ] -> Alcotest.(check int) "reads restored initial value" 0 res.Msg.r_value
   | _ -> Alcotest.fail "one result")

(* D2: a write is withheld while an undecided read of the preceding
   version exists. *)
let d2_write_waits_for_readers () =
  let rig = mk_rig () in
  exec rig ~src:1 ~wire:1 ~t:10 [ Types.Read 5 ];
  ignore (the_reply rig 1) (* read of committed: released *);
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Write (5, 42) ];
  Alcotest.(check int) "writer withheld" 0 (List.length (replies_for rig 2));
  decide rig ~wire:1 true;
  ignore (the_reply rig 2)

(* D3: consecutive writes from different transactions release in
   decision order. *)
let d3_write_waits_for_prev_writer () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Write (5, 2) ];
  Alcotest.(check int) "second write withheld" 0 (List.length (replies_for rig 2));
  decide rig ~wire:1 false;
  ignore (the_reply rig 2)

(* A transaction's own read-then-write of a key must not wait on itself,
   and its pairs must overlap (the fused RMW path). *)
let same_txn_rmw_releases_and_overlaps () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Read 5; Types.Write (5, 42) ];
  let r = the_reply rig 1 in
  match r.Msg.e_results with
  | [ read; write ] ->
    Alcotest.(check bool) "read result first" false read.Msg.r_is_write;
    Alcotest.(check int) "read sees pre-state" 0 read.Msg.r_value;
    let tw_max = Ts.max read.Msg.r_tw write.Msg.r_tw in
    let tr_min = Ts.min read.Msg.r_tr write.Msg.r_tr in
    Alcotest.(check bool) "pairs overlap" true Ts.(tw_max <= tr_min)
  | _ -> Alcotest.fail "two results"

(* Early abort: a late-timestamped request that would have to wait is
   refused outright (§4.2, avoiding indefinite waits). *)
let early_abort_late_blocked () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:100 [ Types.Write (5, 1) ];
  (* smaller timestamp, blocked behind the undecided write: refused *)
  exec rig ~src:2 ~wire:2 ~t:50 [ Types.Read 5 ];
  let r = the_reply rig 2 in
  Alcotest.(check bool) "early abort flag" true (r.Msg.e_flag = Msg.Early_abort);
  (* larger timestamp: allowed to wait instead *)
  exec rig ~src:2 ~wire:3 ~t:200 [ Types.Read 5 ];
  Alcotest.(check int) "late-ts reader waits" 0 (List.length (replies_for rig 3))

let early_abort_disabled_waits () =
  let rig = mk_rig ~cfg:{ Msg.default_config with early_abort = false } () in
  exec rig ~wire:1 ~t:100 [ Types.Write (5, 1) ];
  exec rig ~src:2 ~wire:2 ~t:50 [ Types.Read 5 ];
  Alcotest.(check int) "no early abort, waits" 0 (List.length (replies_for rig 2))

(* Smart retry (Alg 4.4). *)
let smart_retry_repositions () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
  Server.handle rig.server ~src:1 (Msg.Retry { sr_wire = 1; sr_ts = ts 50 });
  (match
     List.filter_map
       (fun (_, m) ->
         match m with Msg.Retry_reply { sr_ok; _ } -> Some sr_ok | _ -> None)
       !(rig.sent)
   with
   | [ ok ] -> Alcotest.(check bool) "retry ok" true ok
   | _ -> Alcotest.fail "one retry reply");
  decide rig ~wire:1 true;
  (* the version now sits at the retried timestamp *)
  exec rig ~src:2 ~wire:2 ~t:60 [ Types.Read 5 ];
  let r = the_reply rig 2 in
  (match r.Msg.e_results with
   | [ res ] -> Alcotest.(check bool) "tw moved to 50" true (Ts.equal res.Msg.r_tw (ts 50))
   | _ -> Alcotest.fail "one result")

let smart_retry_fails_when_superseded () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
  exec rig ~src:2 ~wire:2 ~t:30 [ Types.Write (5, 2) ];
  (* wire 1 cannot move to t=50: wire 2's version (tw=30) <= 50 exists
     after it *)
  Server.handle rig.server ~src:1 (Msg.Retry { sr_wire = 1; sr_ts = ts 50 });
  (match
     List.filter_map
       (fun (_, m) ->
         match m with Msg.Retry_reply { sr_ok; _ } -> Some sr_ok | _ -> None)
       !(rig.sent)
   with
   | [ ok ] -> Alcotest.(check bool) "retry refused" false ok
   | _ -> Alcotest.fail "one retry reply")

let smart_retry_fails_when_read () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
  (* another transaction read the created version: it cannot move *)
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Read 5 ];
  Server.handle rig.server ~src:1 (Msg.Retry { sr_wire = 1; sr_ts = ts 50 });
  match
    List.filter_map
      (fun (_, m) ->
        match m with Msg.Retry_reply { sr_ok; _ } -> Some sr_ok | _ -> None)
      !(rig.sent)
  with
  | [ ok ] -> Alcotest.(check bool) "retry refused" false ok
  | _ -> Alcotest.fail "one retry reply"

(* Read-only fast path (§4.5). *)
let ro_serves_when_fresh () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 ~ro:true ~tro:Ts.zero [ Types.Read 5 ];
  let r = the_reply rig 1 in
  Alcotest.(check bool) "served" true (r.Msg.e_flag = Msg.Ok)

let ro_aborts_when_stale () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
  decide rig ~wire:1 true;
  (* the client's t_ro (zero) is stale now *)
  exec rig ~src:2 ~wire:2 ~t:20 ~ro:true ~tro:Ts.zero [ Types.Read 5 ];
  let r = the_reply rig 2 in
  Alcotest.(check bool) "ro abort" true (r.Msg.e_flag = Msg.Ro_abort);
  (* with up-to-date knowledge it is served *)
  exec rig ~src:2 ~wire:3 ~t:30 ~ro:true ~tro:(ts 10) [ Types.Read 5 ];
  let r = the_reply rig 3 in
  Alcotest.(check bool) "served when fresh" true (r.Msg.e_flag = Msg.Ok)

let ro_aborts_on_undecided_head () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
  (* head undecided: even with matching t_ro the read cannot be served
     without waiting, so it aborts *)
  exec rig ~src:2 ~wire:2 ~t:20 ~ro:true ~tro:(ts 10) [ Types.Read 5 ];
  let r = the_reply rig 2 in
  Alcotest.(check bool) "ro abort on undecided" true (r.Msg.e_flag = Msg.Ro_abort)

(* Recovery (§4.6): with a recovery timeout configured and no decision
   arriving, the backup coordinator (this server) queries the cohorts
   and commits a complete transaction. *)
let recovery_commits_complete_txn () =
  let rig = mk_rig ~cfg:{ Msg.default_config with recovery_timeout = Some 0.5 } () in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 42) ];
  ignore (the_reply rig 1);
  (* client never sends the commit; a later reader is stuck behind it *)
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Read 5 ];
  Alcotest.(check int) "reader blocked" 0 (List.length (replies_for rig 2));
  Sim.Engine.run ~until:2.0 rig.engine;
  let r = the_reply rig 2 in
  (match r.Msg.e_results with
   | [ res ] -> Alcotest.(check int) "recovered commit visible" 42 res.Msg.r_value
   | _ -> Alcotest.fail "one result");
  Alcotest.(check bool) "recovery counted" true
    (List.assoc "recoveries" (Server.counters rig.server) > 0.0)

let suite =
  [
    Alcotest.test_case "write executes immediately" `Quick write_executes_immediately;
    Alcotest.test_case "read of committed immediate" `Quick read_of_committed_is_immediate;
    Alcotest.test_case "D1 read waits for writer" `Quick d1_read_waits_for_writer;
    Alcotest.test_case "D1 abort fixes read locally" `Quick d1_abort_fixes_read;
    Alcotest.test_case "D2 write waits for readers" `Quick d2_write_waits_for_readers;
    Alcotest.test_case "D3 write waits for prev writer" `Quick d3_write_waits_for_prev_writer;
    Alcotest.test_case "same-txn RMW overlaps" `Quick same_txn_rmw_releases_and_overlaps;
    Alcotest.test_case "early abort when late+blocked" `Quick early_abort_late_blocked;
    Alcotest.test_case "early abort disabled -> waits" `Quick early_abort_disabled_waits;
    Alcotest.test_case "smart retry repositions" `Quick smart_retry_repositions;
    Alcotest.test_case "smart retry fails when superseded" `Quick smart_retry_fails_when_superseded;
    Alcotest.test_case "smart retry fails when read" `Quick smart_retry_fails_when_read;
    Alcotest.test_case "RO served when fresh" `Quick ro_serves_when_fresh;
    Alcotest.test_case "RO aborts when stale" `Quick ro_aborts_when_stale;
    Alcotest.test_case "RO aborts on undecided head" `Quick ro_aborts_on_undecided_head;
    Alcotest.test_case "recovery commits complete txn" `Quick recovery_commits_complete_txn;
  ]

(* Fence granularity (§4.5): with the paper's server-level fence, a
   write anywhere on the server aborts stale read-only transactions;
   the per-key fence only cares about the keys actually read. *)
let ro_fence_granularity () =
  let check_fence fence ~expect_flag =
    let rig = mk_rig ~cfg:{ Msg.default_config with ro_fence = fence } () in
    (* a committed write on key 5 advances the server's latest_write_tw *)
    exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ];
    decide rig ~wire:1 true;
    (* read-only txn on a DIFFERENT key with stale (zero) t_ro *)
    exec rig ~src:2 ~wire:2 ~t:20 ~ro:true ~tro:Ts.zero [ Types.Read 6 ];
    let r = the_reply rig 2 in
    Alcotest.(check bool)
      (match fence with `Server -> "server fence aborts" | `Key -> "key fence serves")
      true
      (r.Msg.e_flag = expect_flag)
  in
  check_fence `Server ~expect_flag:Msg.Ro_abort;
  check_fence `Key ~expect_flag:Msg.Ok

(* A write's reported pair carries the vid of its direct predecessor
   (the client-side own-pair extension relies on it). *)
let write_reports_prev_vid () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Read 5 ];
  let read_vid =
    match (the_reply rig 1).Msg.e_results with
    | [ res ] -> res.Msg.r_vid
    | _ -> Alcotest.fail "one result"
  in
  decide rig ~wire:1 true;
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Write (5, 9) ];
  match (the_reply rig 2).Msg.e_results with
  | [ res ] -> Alcotest.(check int) "prev vid is the read version" read_vid res.Msg.r_prev_vid
  | _ -> Alcotest.fail "one result"

let suite =
  suite
  @ [
      Alcotest.test_case "RO fence granularity" `Quick ro_fence_granularity;
      Alcotest.test_case "write reports prev vid" `Quick write_reports_prev_vid;
    ]

(* D2 is per version, not per key: an undecided read of v1 holds back
   the write that creates v2, but not the write that creates v3, whose
   predecessor v2 nobody read. *)
let d2_is_per_version () =
  let rig = mk_rig () in
  exec rig ~wire:1 ~t:10 [ Types.Read 5 ] (* A reads v1, stays undecided *);
  ignore (the_reply rig 1);
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Write (5, 2) ] (* B creates v2 *);
  decide rig ~wire:2 true;
  ignore (the_reply rig 2);
  exec rig ~src:2 ~wire:3 ~t:30 [ Types.Write (5, 3) ] (* C creates v3 *);
  Alcotest.(check bool) "C released at once" true (List.length (replies_for rig 3) = 1)

(* Aborting v2 re-executes the reads of v2 only: A's withheld read of
   the undecided v1 stays where it is. *)
let abort_fixes_only_its_readers () =
  let rig = mk_rig () in
  let fixes () = List.assoc "read_fixes" (Server.counters rig.server) in
  exec rig ~wire:1 ~t:10 [ Types.Write (5, 1) ] (* W creates v1 *);
  exec rig ~src:2 ~wire:2 ~t:20 [ Types.Read 5 ] (* A reads v1 *);
  exec rig ~wire:3 ~t:30 [ Types.Write (5, 2) ] (* B creates v2 *);
  exec rig ~src:2 ~wire:4 ~t:40 [ Types.Read 5 ] (* D reads v2 *);
  let before = fixes () in
  decide rig ~wire:3 false;
  Alcotest.(check (float 0.)) "one read fixed" (before +. 1.) (fixes ());
  Alcotest.(check int) "A and D wait for W" 0
    (List.length (replies_for rig 2) + List.length (replies_for rig 4));
  decide rig ~wire:1 true;
  List.iter
    (fun wire ->
      match (the_reply rig wire).Msg.e_results with
      | [ res ] -> Alcotest.(check int) "reads v1" 1 res.Msg.r_value
      | _ -> Alcotest.fail "one result")
    [ 2; 4 ]

let suite =
  suite
  @ [
      Alcotest.test_case "D2 is per version" `Quick d2_is_per_version;
      Alcotest.test_case "abort fixes only its readers" `Quick abort_fixes_only_its_readers;
    ]

(* A server keeps every decision for the run. Wires 1 .. 2^15 + 1 each
   execute one read of key 5 and commit, so wire 1 is long decided by
   the time a late message for it arrives. *)
let long_decided_rig () =
  let rig = mk_rig () in
  for wire = 1 to (1 lsl 15) + 1 do
    exec rig ~wire ~t:wire [ Types.Read 5 ];
    rig.sent := [];
    decide rig ~wire true;
    rig.sent := []
  done;
  rig

(* A straggler shot of a long-decided wire is refused: one early-abort
   reply, and its write installs no version. *)
let straggler_of_decided_wire_refused () =
  let rig = long_decided_rig () in
  exec rig ~wire:1 ~t:1 [ Types.Write (5, 99) ];
  (match replies_for rig 1 with
   | [ r ] -> Alcotest.(check bool) "early abort" true (r.Msg.e_flag = Msg.Early_abort)
   | rs -> Alcotest.failf "%d replies for the straggler, one expected" (List.length rs));
  let head = Mvstore.Store.most_recent (Server.store rig.server) 5 in
  Alcotest.(check int) "head is still the initial version" 0 head.Mvstore.Store.writer

(* A recovery query for a long-decided wire is answered from its
   outcome. *)
let recovery_query_of_decided_wire () =
  let rig = long_decided_rig () in
  Server.handle rig.server ~src:1 (Msg.Recover_query { rq_wire = 1 });
  match !(rig.sent) with
  | [ (_, Msg.Recover_info { ri_known; ri_decided; _ }) ] ->
    Alcotest.(check bool) "known" true ri_known;
    Alcotest.(check (option bool)) "decided: committed" (Some true) ri_decided
  | _ -> Alcotest.fail "one Recover_info expected"

let suite =
  suite
  @ [
      Alcotest.test_case "straggler of a decided wire is refused" `Quick
        straggler_of_decided_wire_refused;
      Alcotest.test_case "recovery query of a decided wire" `Quick
        recovery_query_of_decided_wire;
    ]

(* --- identity golden: short seeded runs through the whole stack ------- *)

(* One short seeded [Runner.run] per NCC variant on TPC-C (plus NCC on
   google-f1), pinned byte for byte: committed count, attempts,
   messages, every counter, the checker line and the trace digest. The
   server's data structures can change freely underneath; what it sends
   and when must not. *)
let runs_pinned () =
  let module R = Harness.Runner in
  let tpcc () = Workload.Tpcc.make ~n_servers:8 () in
  let f1 () = Workload.Google_f1.make () in
  let cfg ?(replicas = 0) load =
    {
      R.default with
      R.seed = 3;
      n_servers = 8;
      n_clients = 24;
      offered_load = load;
      warmup = 0.02;
      duration = 0.15;
      drain = 0.1;
      check = R.Streaming;
      replicas_per_server = replicas;
    }
  in
  let line (label, proto, w, cfg) =
    Sim.Trace.reset_digest ();
    Sim.Trace.enable_digest ();
    let r = R.run proto (w ()) cfg in
    let digest = Sim.Trace.digest () in
    Sim.Trace.disable_digest ();
    Printf.sprintf "%s committed=%d attempts=%d messages=%d\n  %s\n  check=%s\n  digest=%s\n"
      label r.R.committed r.R.attempts r.R.messages
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) r.R.counters))
      r.R.check_result digest
  in
  Golden.check ~name:"ncc_tpcc_runs.txt"
    (String.concat ""
       (List.map line
          [
            ("NCC tpcc", Ncc.protocol, tpcc, cfg 15_000.0);
            ("NCC-RW tpcc", Ncc.protocol_rw, tpcc, cfg 15_000.0);
            ("NCC-R tpcc", Ncc_r.protocol, tpcc, cfg ~replicas:2 8_000.0);
            ("NCC google-f1", Ncc.protocol, f1, cfg 8_000.0);
          ]))

(* The same line format over many clients: 2,000 clients at 8k txn/s
   give each client a handful of transactions, so its coordinator state
   is always cold (first reply from a server, first attempt of a txn),
   where [runs_pinned]'s 24 clients keep it warm. *)
let many_clients_pinned () =
  let module R = Harness.Runner in
  let cfg =
    {
      R.default with
      R.seed = 3;
      n_servers = 8;
      n_clients = 2_000;
      offered_load = 8_000.0;
      warmup = 0.02;
      duration = 0.15;
      drain = 0.1;
      check = R.Streaming;
    }
  in
  (* The scale preset's shape: 10k clients keep more than 4,096 events
     pending, the event-queue population of the reference scale point,
     on the uniform latency model (the asymmetric table is O(nodes^2)). *)
  let wide =
    {
      cfg with
      R.n_servers = 64;
      n_clients = 10_000;
      offered_load = 40_000.0;
      latency = R.Uniform { one_way = 250e-6; jitter = 25e-6 };
    }
  in
  let line (label, proto, cfg) =
    Sim.Trace.reset_digest ();
    Sim.Trace.enable_digest ();
    let r = R.run proto (Workload.Google_f1.make ()) cfg in
    let digest = Sim.Trace.digest () in
    Sim.Trace.disable_digest ();
    Printf.sprintf "%s committed=%d attempts=%d messages=%d\n  %s\n  check=%s\n  digest=%s\n"
      label r.R.committed r.R.attempts r.R.messages
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) r.R.counters))
      r.R.check_result digest
  in
  Golden.check ~name:"many_clients_f1_runs.txt"
    (String.concat ""
       (List.map line
          [
            ("NCC google-f1", Ncc.protocol, cfg);
            ("dOCC google-f1", Baselines.docc, cfg);
            ("NCC google-f1 64x10000", Ncc.protocol, wide);
            ("dOCC google-f1 64x10000", Baselines.docc, wide);
          ]))

let suite =
  suite
  @ [
      Alcotest.test_case "seeded runs match the golden" `Quick runs_pinned;
      Alcotest.test_case "many-client runs match the golden" `Quick many_clients_pinned;
    ]
