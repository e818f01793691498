(* The paper's worked examples, reproduced as deterministic scenarios:

   - Fig 2a/2c: dOCC falsely aborts a naturally consistent transaction
     that NCC commits;
   - Fig 3a: asynchrony-aware timestamps rescue a transaction that
     plain clock timestamps would get safeguard-rejected;
   - Fig 3b/3c: smart retry rescues the same false reject reactively;
   - §3/§4.2: the timestamp-inversion pitfall — with response timing
     control disabled (the negative control), a serializable-but-not-
     strict execution really happens and the RSG checker catches it;
     with RTC on, the same schedule is strictly serializable.

   All scenarios run on a hand-built rig with exact per-message delays,
   so each interleaving is reproduced, not sampled. *)

open Kernel

(* --- a rig with controllable per-message delays ---------------------- *)

type rig = {
  engine : Sim.Engine.t;
  topo : Cluster.Topology.t;
  (* ncc-lint: allow R4 — type-erased dispatch, see mk_rig comment below *)
  handlers : (Types.node_id, src:Types.node_id -> Obj.t -> unit) Hashtbl.t;
  delay : (Types.node_id -> Types.node_id -> float) ref;
  clock_of : Types.node_id -> Sim.Clock.t;
}

(* Heterogeneous dispatch via Obj is confined to this rig: every node in
   one scenario uses the same message type, established by the protocol
   modules the scenario wires in. *)
let mk_rig ?(n_servers = 2) ?(n_clients = 3) ?(clock_of = fun _ -> Sim.Clock.perfect) ()
    =
  {
    engine = Sim.Engine.create ();
    topo = Cluster.Topology.make ~n_servers ~n_clients ();
    handlers = Hashtbl.create 8;
    delay = ref (fun _ _ -> 1e-4);
    clock_of;
  }

let rig_ctx (type m) rig node : m Cluster.Net.ctx =
  {
    Cluster.Net.self = node;
    engine = rig.engine;
    rng = Sim.Rng.create (1000 + node);
    topo = rig.topo;
    clock = rig.clock_of node;
    send =
      (fun ~dst msg ->
        let d = !(rig.delay) node dst in
        Sim.Engine.schedule rig.engine ~delay:d (fun () ->
            match Hashtbl.find_opt rig.handlers dst with
            (* ncc-lint: allow R4 — paired with Obj.obj in set_handler *)
            | Some h -> h ~src:node (Obj.repr msg)
            | None -> ()));
    timer = (fun ~delay f -> Sim.Engine.schedule rig.engine ~delay f);
  }

let set_handler (type m) rig node (h : src:Types.node_id -> m -> unit) =
  (* ncc-lint: allow R4 — paired with Obj.repr in rig_ctx's send *)
  Hashtbl.replace rig.handlers node (fun ~src o -> h ~src (Obj.obj o))

let at rig t f = Sim.Engine.schedule rig.engine ~delay:t f
let run rig ~until = Sim.Engine.run ~until rig.engine

(* NCC wiring over the rig: returns submit functions per client plus
   outcome log. *)
let wire_ncc ?(cfg = Ncc.Msg.default_config) rig =
  Txn.reset_ids ();
  Mvstore.Store.reset_vids ();
  let outcomes : (int * float * Outcome.t) list ref = ref [] in
  let servers =
    List.map
      (fun id ->
        let s = Ncc.Server.create cfg (rig_ctx rig id) in
        set_handler rig id (fun ~src m -> Ncc.Server.handle s ~src m);
        s)
      (Cluster.Topology.servers rig.topo)
  in
  let clients =
    List.map
      (fun id ->
        let c =
          Ncc.Client.create cfg (rig_ctx rig id) ~report:(fun o ->
              outcomes := (id, Sim.Engine.now rig.engine, o) :: !outcomes)
        in
        set_handler rig id (fun ~src m -> Ncc.Client.handle c ~src m);
        (id, c))
      (Cluster.Topology.clients rig.topo)
  in
  (servers, clients, outcomes)

let outcome_of outcomes label =
  List.find_map
    (fun (_, _, (o : Outcome.t)) -> if o.txn.Txn.label = label then Some o else None)
    !outcomes

(* Did any attempt with this label commit? (Retries and duplicate
   submissions may add aborted outcomes next to the committed one.) *)
let committed outcomes label =
  List.exists
    (fun (_, _, (o : Outcome.t)) -> o.txn.Txn.label = label && Outcome.committed o)
    !outcomes

(* --- Fig 2a / 2c ------------------------------------------------------ *)

(* tx1 writes A; tx2 reads A and B. They are naturally consistent (tx2's
   reads arrive before tx1's write everywhere they overlap), yet dOCC's
   prepare-to-commit lock window falsely aborts tx2. NCC commits both. *)
let fig2_schedule_docc () =
  Txn.reset_ids ();
  Mvstore.Store.reset_vids ();
  let rig = mk_rig () in
  let outcomes = ref [] in
  let module D = Baselines.Docc in
  List.iter
    (fun id ->
      let s = D.make_server (rig_ctx rig id) in
      set_handler rig id (fun ~src m -> D.server_handle s ~src m))
    (Cluster.Topology.servers rig.topo);
  let clients =
    List.map
      (fun id ->
        let c =
          D.make_client (rig_ctx rig id) ~report:(fun o -> outcomes := (id, o) :: !outcomes)
        in
        set_handler rig id (fun ~src m -> D.client_handle c ~src m);
        (id, c))
      (Cluster.Topology.clients rig.topo)
  in
  let submit id txn = D.submit (Types.assoc_node id clients) txn in
  (* key 0 -> server 0 (A), key 1 -> server 1 (B) *)
  at rig 0.0010 (fun () ->
      submit 2 (Txn.make ~label:"tx2" ~client:2 [ [ Types.Read 0; Types.Read 1 ] ]));
  at rig 0.00105 (fun () ->
      submit 3 (Txn.make ~label:"tx1" ~client:3 [ [ Types.Write (0, 42) ] ]));
  run rig ~until:0.05;
  outcomes

let fig2a_docc_falsely_aborts () =
  let outcomes = fig2_schedule_docc () in
  let status label =
    List.find_map
      (fun (_, (o : Outcome.t)) ->
        if o.txn.Txn.label = label then Some o.status else None)
      !outcomes
  in
  Alcotest.(check bool) "tx1 (the write) commits" true (status "tx1" = Some Outcome.Committed);
  (match status "tx2" with
   | Some (Outcome.Aborted Outcome.Validation_failed) -> ()
   | s ->
     Alcotest.fail
       (Printf.sprintf "expected tx2 falsely aborted by dOCC validation, got %s"
          (match s with
           | Some Outcome.Committed -> "committed"
           | Some (Outcome.Aborted r) -> Outcome.reason_to_string r
           | None -> "nothing")))

let fig2c_ncc_commits_both () =
  let rig = mk_rig () in
  let _, clients, outcomes = wire_ncc rig in
  let submit id txn = Ncc.Client.submit (Types.assoc_node id clients) txn in
  at rig 0.0010 (fun () ->
      submit 2 (Txn.make ~label:"tx2" ~client:2 [ [ Types.Read 0; Types.Read 1 ] ]));
  at rig 0.00105 (fun () ->
      submit 3 (Txn.make ~label:"tx1" ~client:3 [ [ Types.Write (0, 42) ] ]));
  run rig ~until:0.05;
  Alcotest.(check bool) "tx1 commits" true (committed outcomes "tx1");
  Alcotest.(check bool) "tx2 commits too (no false abort)" true (committed outcomes "tx2")

(* --- Fig 3a: asynchrony-aware timestamps ------------------------------ *)

(* Client 2 is far from server 1 (1 ms one way); client 3 is near. Both
   write key 1 around the same time; the far client's write arrives
   later but carries the smaller timestamp and, with plain clock
   timestamps (and no smart retry), fails the safeguard against its own
   second key. Asynchrony-aware timestamps learn the gap and commit it. *)
let fig3a_schedule ~async_aware =
  let rig = mk_rig () in
  (rig.delay :=
     fun src dst ->
       (* node 2 <-> server 1 is the slow path *)
       if (Types.node_eq src 2 && Types.node_eq dst 1)
       || (Types.node_eq src 1 && Types.node_eq dst 2) then 1e-3 else 1e-4);
  let cfg =
    { Ncc.Msg.default_config with smart_retry = false; async_aware; use_ro = false }
  in
  let _, clients, outcomes = wire_ncc ~cfg rig in
  let submit id txn = Ncc.Client.submit (Types.assoc_node id clients) txn in
  (* warmup so client 2 can learn its asynchrony to server 1 *)
  at rig 0.001 (fun () ->
      submit 2 (Txn.make ~label:"warmup" ~client:2 [ [ Types.Read 1 ] ]));
  (* tx1 (far client): writes keys 0 and 1; tx2 (near client): writes 1 *)
  at rig 0.0100 (fun () ->
      submit 2 (Txn.make ~label:"tx1" ~client:2 [ [ Types.Write (0, 1); Types.Write (1, 2) ] ]));
  at rig 0.0101 (fun () ->
      submit 3 (Txn.make ~label:"tx2" ~client:3 [ [ Types.Write (1, 3) ] ]));
  run rig ~until:0.05;
  outcomes

let fig3a_plain_ts_rejects () =
  let outcomes = fig3a_schedule ~async_aware:false in
  Alcotest.(check bool) "tx2 commits" true (committed outcomes "tx2");
  (match outcome_of outcomes "tx1" with
   | Some { Outcome.status = Outcome.Aborted Outcome.Safeguard_reject; _ } -> ()
   | _ -> Alcotest.fail "expected tx1 safeguard-rejected with plain timestamps")

let fig3a_async_aware_commits () =
  let outcomes = fig3a_schedule ~async_aware:true in
  Alcotest.(check bool) "tx2 commits" true (committed outcomes "tx2");
  Alcotest.(check bool) "tx1 commits with asynchrony-aware ts" true
    (committed outcomes "tx1")

(* --- Fig 3b/3c: smart retry ------------------------------------------- *)

let fig3c_smart_retry_rescues () =
  let rig = mk_rig () in
  (rig.delay :=
     fun src dst ->
       if (Types.node_eq src 2 && Types.node_eq dst 1)
       || (Types.node_eq src 1 && Types.node_eq dst 2) then 1e-3 else 1e-4);
  (* same schedule as 3a, plain timestamps, but smart retry enabled *)
  let cfg =
    {
      Ncc.Msg.default_config with
      smart_retry = true;
      async_aware = false;
      use_ro = false;
    }
  in
  let _, clients, outcomes = wire_ncc ~cfg rig in
  let submit id txn = Ncc.Client.submit (Types.assoc_node id clients) txn in
  at rig 0.0100 (fun () ->
      submit 2 (Txn.make ~label:"tx1" ~client:2 [ [ Types.Write (0, 1); Types.Write (1, 2) ] ]));
  at rig 0.0101 (fun () ->
      submit 3 (Txn.make ~label:"tx2" ~client:3 [ [ Types.Write (1, 3) ] ]));
  run rig ~until:0.05;
  Alcotest.(check bool) "tx2 commits" true (committed outcomes "tx2");
  Alcotest.(check bool) "tx1 rescued by smart retry" true (committed outcomes "tx1")

(* --- the timestamp-inversion pitfall (§3, §4.2) ------------------------ *)

(* tx1 reads A (fast) and B (slow: its read is in flight for 10 ms).
   Meanwhile tx3 writes A; once tx3 commits, an external signal makes
   client 4 — whose clock runs 5 ms behind — issue tx4 writing B. tx1's
   late read of B then observes tx4's write while its read of A
   predates tx3: serializable, but it inverts tx3 ->rto-> tx4.

   Response timing control prevents the schedule: tx3's write response
   is withheld (D2: tx1's read of A is undecided), so the external
   signal cannot fire before tx1 finishes. With RTC disabled (negative
   control), the inversion really commits and the checker flags it. *)
let inversion_schedule ~rtc =
  let clock_of = function
    | 4 -> Sim.Clock.make ~offset:(-5e-3) ~drift:0.0 (* tx4's client lags *)
    | _ -> Sim.Clock.perfect
  in
  let rig = mk_rig ~n_servers:2 ~n_clients:3 ~clock_of () in
  (rig.delay :=
     fun src dst ->
       (* tx1's client <-> server 1 (key B) is the slow path *)
       if (Types.node_eq src 2 && Types.node_eq dst 1)
       || (Types.node_eq src 1 && Types.node_eq dst 2) then 10e-3 else 1e-4);
  let cfg = { Ncc.Msg.default_config with rtc; use_ro = false } in
  let servers, clients, outcomes = wire_ncc ~cfg rig in
  let submit id txn = Ncc.Client.submit (Types.assoc_node id clients) txn in
  let chk = Checker.Rsg.create () in
  let starts = Hashtbl.create 8 in
  let submit_tracked id txn =
    Hashtbl.replace starts txn.Txn.id (Sim.Engine.now rig.engine);
    submit id txn
  in
  (* the external signal: when tx3 commits, client 4 uploads tx4 (once) *)
  let tx4_sent = ref false in
  let watch () =
    if (not !tx4_sent) && committed outcomes "tx3" then begin
      tx4_sent := true;
      submit_tracked 4 (Txn.make ~label:"tx4" ~client:4 [ [ Types.Write (1, 44) ] ])
    end
  in
  let rec poll () =
    if not !tx4_sent then begin
      watch ();
      Sim.Engine.schedule rig.engine ~delay:1e-4 poll
    end
  in
  at rig 0.0010 (fun () ->
      submit_tracked 2 (Txn.make ~label:"tx1" ~client:2 [ [ Types.Read 0; Types.Read 1 ] ]));
  at rig 0.0020 (fun () ->
      submit_tracked 3 (Txn.make ~label:"tx3" ~client:3 [ [ Types.Write (0, 33) ] ]));
  at rig 0.0021 poll;
  run rig ~until:0.1;
  (* feed the committed history (with client-observed real-time
     intervals) to the checker *)
  List.iter
    (fun (_, finish, (o : Outcome.t)) ->
      if Outcome.committed o then
        Checker.Rsg.record_commit chk ~txn:o.txn.Txn.id
          ~start:(Hashtbl.find starts o.txn.Txn.id)
          ~finish
          ~reads:(List.map (fun (k, vid, _) -> (k, vid)) o.Outcome.reads)
          ~writes:o.Outcome.writes)
    !outcomes;
  (outcomes, chk, servers)

let inversion_check ~rtc =
  let outcomes, chk, servers = inversion_schedule ~rtc in
  List.iter
    (fun srv ->
      List.iter
        (fun (key, vids) -> Checker.Rsg.record_version_order chk key vids)
        (Mvstore.Store.all_committed_orders (Ncc.Server.store srv)))
    servers;
  (outcomes, Checker.Rsg.check chk ~strict:true, Checker.Rsg.check chk ~strict:false)

let pitfall_without_rtc () =
  let outcomes, strict, ser = inversion_check ~rtc:false in
  Alcotest.(check bool) "tx1 committed" true (committed outcomes "tx1");
  Alcotest.(check bool) "tx4 committed" true (committed outcomes "tx4");
  (match ser with
   | Checker.Verdict.Ok -> ()
   | Checker.Verdict.Violation a ->
     Alcotest.fail
       ("should stay serializable: " ^ Checker.Verdict.anomaly_to_string a));
  match strict with
  | Checker.Verdict.Violation _ -> () (* the pitfall, caught *)
  | Checker.Verdict.Ok ->
    Alcotest.fail "expected a strict-serializability violation without RTC"

let rtc_prevents_pitfall () =
  let outcomes, strict, _ = inversion_check ~rtc:true in
  Alcotest.(check bool) "tx1 committed" true (committed outcomes "tx1");
  Alcotest.(check bool) "tx4 committed" true (committed outcomes "tx4");
  match strict with
  | Checker.Verdict.Ok -> ()
  | Checker.Verdict.Violation a ->
    Alcotest.fail
      ("RTC must prevent the inversion: " ^ Checker.Verdict.anomaly_to_string a)

let suite =
  [
    Alcotest.test_case "Fig 2a: dOCC falsely aborts" `Quick fig2a_docc_falsely_aborts;
    Alcotest.test_case "Fig 2c: NCC commits both" `Quick fig2c_ncc_commits_both;
    Alcotest.test_case "Fig 3a: plain ts safeguard-rejects" `Quick fig3a_plain_ts_rejects;
    Alcotest.test_case "Fig 3a: async-aware ts commits" `Quick fig3a_async_aware_commits;
    Alcotest.test_case "Fig 3c: smart retry rescues" `Quick fig3c_smart_retry_rescues;
    Alcotest.test_case "pitfall: inversion without RTC" `Quick pitfall_without_rtc;
    Alcotest.test_case "pitfall: RTC prevents inversion" `Quick rtc_prevents_pitfall;
  ]
