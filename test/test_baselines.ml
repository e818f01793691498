(* Baseline-protocol unit behaviours, each on a hand-driven rig:
   dOCC's validation and contention window, d2PL's no-wait aborts and
   wound-wait priorities, TAPIR's timestamp checks, MVTO's stale reads
   and parked reads, Janus-CC's dependency tracking. *)

open Kernel

let ts t cid = Ts.make ~time:t ~cid

let mk_ctx ?(self = 0) ~capture () =
  let engine = Sim.Engine.create () in
  ( engine,
    {
      Cluster.Net.self;
      engine;
      rng = Sim.Rng.create 1;
      topo = Cluster.Topology.make ~n_servers:2 ~n_clients:2 ();
      clock = Sim.Clock.perfect;
      send = (fun ~dst msg -> capture (dst, msg));
      timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
    } )

(* --- dOCC ----------------------------------------------------------- *)

module Docc = Baselines.Docc

let docc_rig () =
  let sent = ref [] in
  let _, ctx = mk_ctx ~capture:(fun m -> sent := !sent @ [ m ]) () in
  (Docc.make_server ctx, sent)

let docc_prepare_ok (s : Docc.server) sent =
  List.filter_map
    (fun (_, m) ->
      match m with Docc.Prepare_reply { p_ok; _ } -> Some p_ok | _ -> None)
    !sent
  |> fun oks ->
  ignore s;
  oks

let docc_validation_detects_stale_read () =
  let s, sent = docc_rig () in
  (* wire 1 reads key 0, wire 2 writes and commits it, wire 1 prepares *)
  Docc.server_handle s ~src:2
    (Docc.Exec { x_wire = 1; x_round = 1; x_keys = [ 0 ]; x_bytes = 0 });
  let vid =
    match !sent with
    | [ (_, Docc.Exec_reply { e_results = [ r ]; _ }) ] -> r.Baselines.Common.b_vid
    | _ -> Alcotest.fail "expected exec reply"
  in
  Docc.server_handle s ~src:3
    (Docc.Prepare
       { p_wire = 2; p_ts = ts 5 3; p_reads = []; p_writes = [ (0, 99) ]; p_bytes = 0 });
  Docc.server_handle s ~src:3 (Docc.Decide { d_wire = 2; d_commit = true });
  Docc.server_handle s ~src:2
    (Docc.Prepare
       { p_wire = 1; p_ts = ts 6 2; p_reads = [ (0, vid) ]; p_writes = []; p_bytes = 0 });
  match docc_prepare_ok s sent with
  | [ true; false ] -> ()
  | oks ->
    Alcotest.fail
      (Printf.sprintf "expected [true;false], got [%s]"
         (String.concat ";" (List.map string_of_bool oks)))

let docc_contention_window_aborts_reader () =
  let s, sent = docc_rig () in
  (* wire 1 prepares a write on key 0 (locks it); wire 2's read of key 0
     cannot validate while the lock is held — the Fig 2a false abort *)
  Docc.server_handle s ~src:2
    (Docc.Prepare
       { p_wire = 1; p_ts = ts 5 2; p_reads = []; p_writes = [ (0, 1) ]; p_bytes = 0 });
  let vid =
    (* reader fetched the (still) committed version before the prepare *)
    (Mvstore.Store.most_recent_committed s.Docc.part.Baselines.Part.store 0).Mvstore.Store.vid
  in
  Docc.server_handle s ~src:3
    (Docc.Prepare
       { p_wire = 2; p_ts = ts 6 3; p_reads = [ (0, vid) ]; p_writes = []; p_bytes = 0 });
  (match docc_prepare_ok s sent with
   | [ true; false ] -> ()
   | _ -> Alcotest.fail "reader should be blocked by the lock");
  (* after the writer aborts, the same read validates again *)
  Docc.server_handle s ~src:2 (Docc.Decide { d_wire = 1; d_commit = false });
  Docc.server_handle s ~src:3
    (Docc.Prepare
       { p_wire = 3; p_ts = ts 7 3; p_reads = [ (0, vid) ]; p_writes = []; p_bytes = 0 });
  match docc_prepare_ok s sent with
  | [ true; false; true ] -> ()
  | _ -> Alcotest.fail "read should validate after the abort"

(* --- d2PL ------------------------------------------------------------ *)

module D2pl = Baselines.D2pl

let d2pl_rig variant =
  let sent = ref [] in
  let engine, ctx = mk_ctx ~capture:(fun m -> sent := !sent @ [ m ]) () in
  (engine, D2pl.make_server variant ctx, sent)

let acquire s ~src ~wire ~t ops =
  D2pl.server_handle s ~src
    (D2pl.Acquire
       {
         a_wire = wire;
         a_round = 1;
         a_ts = ts t src;
         a_ops = ops;
         a_exclusive = false;
         a_bytes = 0;
       })

let d2pl_replies sent =
  List.filter_map
    (fun (_, m) ->
      match m with D2pl.Acquire_reply { r_wire; r_ok; _ } -> Some (r_wire, r_ok) | _ -> None)
    !sent

let no_wait_aborts_on_conflict () =
  let _, s, sent = d2pl_rig D2pl.No_wait in
  acquire s ~src:2 ~wire:1 ~t:5 [ Types.Write (0, 1) ];
  acquire s ~src:3 ~wire:2 ~t:6 [ Types.Read 0 ];
  Alcotest.(check (list (pair int bool)))
    "second fails immediately"
    [ (1, true); (2, false) ]
    (d2pl_replies sent);
  (* release by commit, then the lock is free again *)
  D2pl.server_handle s ~src:2 (D2pl.Decide { d_wire = 1; d_commit = true });
  acquire s ~src:3 ~wire:3 ~t:7 [ Types.Read 0 ];
  Alcotest.(check (pair int bool)) "after release" (3, true)
    (List.nth (d2pl_replies sent) 2)

let wound_wait_wounds_younger_holder () =
  let engine, s, sent = d2pl_rig D2pl.Wound_wait in
  (* younger (larger ts) holds the lock; an older requester arrives *)
  acquire s ~src:2 ~wire:10 ~t:100 [ Types.Write (0, 1) ];
  acquire s ~src:3 ~wire:20 ~t:50 [ Types.Write (0, 2) ];
  Sim.Engine.run ~until:0.01 engine;
  let wounds =
    List.filter_map
      (fun (dst, m) -> match m with D2pl.Wound { w_wire } -> Some (dst, w_wire) | _ -> None)
      !sent
  in
  Alcotest.(check bool) "victim's client wounded" true
    (List.exists
       (fun (d, w) -> Kernel.Types.node_eq d 2 && Int.equal w 10)
       wounds);
  (* victim aborts; the old requester's poll then grants and replies *)
  D2pl.server_handle s ~src:2 (D2pl.Decide { d_wire = 10; d_commit = false });
  Sim.Engine.run ~until:0.02 engine;
  Alcotest.(check bool) "old requester eventually granted" true
    (List.mem (20, true) (d2pl_replies sent))

let wound_wait_younger_waits () =
  let engine, s, sent = d2pl_rig D2pl.Wound_wait in
  acquire s ~src:2 ~wire:10 ~t:50 [ Types.Write (0, 1) ];
  acquire s ~src:3 ~wire:20 ~t:100 [ Types.Write (0, 2) ];
  Sim.Engine.run ~until:0.01 engine;
  let wounds =
    List.filter (fun (_, m) -> match m with D2pl.Wound _ -> true | _ -> false) !sent
  in
  Alcotest.(check int) "no wound for older holder" 0 (List.length wounds);
  Alcotest.(check bool) "younger still waiting" true
    (not (List.mem_assoc 20 (d2pl_replies sent)));
  D2pl.server_handle s ~src:2 (D2pl.Decide { d_wire = 10; d_commit = true });
  Sim.Engine.run ~until:0.02 engine;
  Alcotest.(check bool) "granted after release" true
    (List.mem (20, true) (d2pl_replies sent))

(* --- TAPIR ------------------------------------------------------------ *)

module Tapir = Baselines.Tapir

let tapir_rig () =
  let sent = ref [] in
  let _, ctx = mk_ctx ~capture:(fun m -> sent := !sent @ [ m ]) () in
  (Tapir.make_server ctx, sent)

let tapir_prepare s ~src ~wire ~t ops =
  Tapir.server_handle s ~src
    (Tapir.Prepare { p_wire = wire; p_round = 1; p_ts = ts t src; p_ops = ops; p_bytes = 0 })

let tapir_oks sent =
  List.filter_map
    (fun (_, m) ->
      match m with Tapir.Prepare_reply { p_ok; _ } -> Some p_ok | _ -> None)
    !sent

let tapir_rejects_write_under_read () =
  let s, sent = tapir_rig () in
  tapir_prepare s ~src:2 ~wire:1 ~t:100 [ Types.Read 0 ];
  (* a write below the read timestamp must abort *)
  tapir_prepare s ~src:3 ~wire:2 ~t:50 [ Types.Write (0, 1) ];
  (* a write above it is fine *)
  tapir_prepare s ~src:3 ~wire:3 ~t:150 [ Types.Write (0, 2) ];
  Alcotest.(check (list bool)) "read ok, low write rejected, high write ok"
    [ true; false; true ] (tapir_oks sent)

let tapir_read_aborts_on_pending () =
  let s, sent = tapir_rig () in
  tapir_prepare s ~src:2 ~wire:1 ~t:50 [ Types.Write (0, 1) ];
  (* a read above the pending write aborts rather than waits *)
  tapir_prepare s ~src:3 ~wire:2 ~t:100 [ Types.Read 0 ];
  Alcotest.(check (list bool)) "pending write aborts the read" [ true; false ]
    (tapir_oks sent)

(* --- MVTO -------------------------------------------------------------- *)

module Mvto = Baselines.Mvto

let mvto_rig () =
  let sent = ref [] in
  let _, ctx = mk_ctx ~capture:(fun m -> sent := !sent @ [ m ]) () in
  (Mvto.make_server ctx, sent)

let mvto_exec s ~src ~wire ~t ops =
  Mvto.server_handle s ~src
    (Mvto.Exec { x_wire = wire; x_round = 1; x_ts = ts t src; x_ops = ops; x_bytes = 0 })

let mvto_replies sent =
  List.filter_map
    (fun (_, m) ->
      match m with
      | Mvto.Exec_reply { e_wire; e_ok; e_results; _ } -> Some (e_wire, e_ok, e_results)
      | _ -> None)
    !sent

let mvto_reads_stale_versions () =
  let s, sent = mvto_rig () in
  mvto_exec s ~src:2 ~wire:1 ~t:100 [ Types.Write (0, 42) ];
  Mvto.server_handle s ~src:2 (Mvto.Decide { d_wire = 1; d_commit = true });
  (* a read BELOW the committed write still succeeds, returning the
     initial version: MVTO reads never abort *)
  mvto_exec s ~src:3 ~wire:2 ~t:50 [ Types.Read 0 ];
  (match mvto_replies sent with
   | [ _; (2, true, [ r ]) ] ->
     Alcotest.(check int) "stale value served" 0 r.Baselines.Common.b_value
   | _ -> Alcotest.fail "unexpected replies");
  (* and a read above it sees the new value *)
  mvto_exec s ~src:3 ~wire:3 ~t:150 [ Types.Read 0 ];
  match List.rev (mvto_replies sent) with
  | (3, true, [ r ]) :: _ ->
    Alcotest.(check int) "fresh value served" 42 r.Baselines.Common.b_value
  | _ -> Alcotest.fail "unexpected replies"

let mvto_read_parks_on_undecided () =
  let s, sent = mvto_rig () in
  mvto_exec s ~src:2 ~wire:1 ~t:50 [ Types.Write (0, 42) ];
  mvto_exec s ~src:3 ~wire:2 ~t:100 [ Types.Read 0 ];
  Alcotest.(check int) "read parked" 1 (List.length (mvto_replies sent));
  Mvto.server_handle s ~src:2 (Mvto.Decide { d_wire = 1; d_commit = true });
  (match List.rev (mvto_replies sent) with
   | (2, true, [ r ]) :: _ ->
     Alcotest.(check int) "unparked with committed value" 42 r.Baselines.Common.b_value
   | _ -> Alcotest.fail "read not released");
  (* a parked read also blocks in-between writes *)
  mvto_exec s ~src:2 ~wire:3 ~t:70 [ Types.Write (0, 7) ];
  match List.rev (mvto_replies sent) with
  | (3, ok, _) :: _ -> Alcotest.(check bool) "late write rejected" false ok
  | _ -> Alcotest.fail "expected write reply"

let mvto_write_rejected_under_read () =
  let s, sent = mvto_rig () in
  mvto_exec s ~src:3 ~wire:1 ~t:100 [ Types.Read 0 ];
  mvto_exec s ~src:2 ~wire:2 ~t:50 [ Types.Write (0, 1) ];
  match mvto_replies sent with
  | [ (1, true, _); (2, false, _) ] -> ()
  | _ -> Alcotest.fail "write under read must abort"

(* --- Janus-CC ----------------------------------------------------------- *)

module Tr = Baselines.Tr

let tr_rig () =
  let sent = ref [] in
  let _, ctx = mk_ctx ~capture:(fun m -> sent := !sent @ [ m ]) () in
  (Tr.make_server ctx, sent)

let tr_deps sent wire =
  List.find_map
    (fun (_, m) ->
      match m with
      | Tr.Preaccept_reply { pa_wire; pa_deps; _ } when pa_wire = wire -> Some pa_deps
      | _ -> None)
    !sent

let tr_results sent wire =
  List.find_map
    (fun (_, m) ->
      match m with
      | Tr.Commit_reply { c_wire; c_results } when c_wire = wire -> Some c_results
      | _ -> None)
    !sent

let janus_tracks_dependencies () =
  let s, sent = tr_rig () in
  Tr.server_handle s ~src:2 (Tr.Preaccept { pa_wire = 1; pa_round = 1; pa_ops = [ Types.Write (0, 1) ]; pa_bytes = 0 });
  Tr.server_handle s ~src:3 (Tr.Preaccept { pa_wire = 2; pa_round = 1; pa_ops = [ Types.Read 0 ]; pa_bytes = 0 });
  Alcotest.(check (option (list int))) "first has no deps" (Some []) (tr_deps sent 1);
  Alcotest.(check (option (list int))) "second depends on first" (Some [ 1 ])
    (tr_deps sent 2);
  (* reads do not depend on reads *)
  Tr.server_handle s ~src:2 (Tr.Preaccept { pa_wire = 3; pa_round = 1; pa_ops = [ Types.Read 0 ]; pa_bytes = 0 });
  Alcotest.(check (option (list int))) "read-read no dep" (Some [ 1 ]) (tr_deps sent 3)

let janus_executes_in_dependency_order () =
  let s, sent = tr_rig () in
  Tr.server_handle s ~src:2 (Tr.Preaccept { pa_wire = 1; pa_round = 1; pa_ops = [ Types.Write (0, 10) ]; pa_bytes = 0 });
  Tr.server_handle s ~src:3 (Tr.Preaccept { pa_wire = 2; pa_round = 1; pa_ops = [ Types.Read 0 ]; pa_bytes = 0 });
  (* commit arrives for the dependent first: it must wait *)
  Tr.server_handle s ~src:3 (Tr.Commit { c_wire = 2; c_deps = [ 1 ] });
  Alcotest.(check (option (list Alcotest.reject))) "dependent waits" None
    (Option.map (fun _ -> []) (tr_results sent 2));
  Tr.server_handle s ~src:2 (Tr.Commit { c_wire = 1; c_deps = [] });
  (match tr_results sent 2 with
   | Some [ r ] ->
     Alcotest.(check int) "dependent read sees the write" 10 r.Baselines.Common.b_value
   | _ -> Alcotest.fail "dependent did not execute");
  Alcotest.(check bool) "dep executed too" true (tr_results sent 1 <> None)

let janus_breaks_mutual_cycle_by_id () =
  let s, sent = tr_rig () in
  Tr.server_handle s ~src:2 (Tr.Preaccept { pa_wire = 7; pa_round = 1; pa_ops = [ Types.Write (0, 70) ]; pa_bytes = 0 });
  Tr.server_handle s ~src:3 (Tr.Preaccept { pa_wire = 9; pa_round = 1; pa_ops = [ Types.Write (0, 90) ]; pa_bytes = 0 });
  (* mutual dependency (as if discovered on two different servers) *)
  Tr.server_handle s ~src:3 (Tr.Commit { c_wire = 9; c_deps = [ 7 ] });
  Alcotest.(check bool) "9 waits for 7" true (tr_results sent 9 = None);
  Tr.server_handle s ~src:2 (Tr.Commit { c_wire = 7; c_deps = [ 9 ] });
  Alcotest.(check bool) "both executed" true
    (tr_results sent 7 <> None && tr_results sent 9 <> None);
  (* smaller id executed first: the final committed value is 9's *)
  Alcotest.(check int) "id order applied" 90
    (Mvstore.Store.most_recent_committed s.Tr.store 0).Mvstore.Store.value

(* --- the client contract, per baseline ----------------------------------- *)

(* What a hand-driven cluster needs of one baseline's two halves. *)
module type PROTO = sig
  type msg

  val msg_phase : msg -> Obs.Phase.t

  type server

  val make_server : msg Cluster.Net.ctx -> server
  val server_handle : server -> src:Types.node_id -> msg -> unit

  type client

  val make_client : msg Cluster.Net.ctx -> report:(Outcome.t -> unit) -> client
  val client_handle : client -> src:Types.node_id -> msg -> unit
  val submit : client -> Txn.t -> unit
  val cancel : client -> Txn.t -> [ `Cancelled | `Keep_waiting ]
end

module D2pl_nw = struct
  include D2pl

  let make_server = make_server No_wait
  let make_client = make_client No_wait
end

module D2pl_ww = struct
  include D2pl

  let make_server = make_server Wound_wait
  let make_client = make_client Wound_wait
end

(* Three servers (keys land on server [key mod 3]) and one client, node
   3. Every message waits in one queue until the test delivers it; the
   client's sends are logged as (destination, phase). *)
module Rig (P : PROTO) = struct
  type t = {
    client : P.client;
    servers : P.server array;
    queue : (int * int * P.msg) Queue.t;  (* src, dst, msg *)
    sent : (int * Obs.Phase.t) list ref;  (* client sends, newest first *)
    reported : Outcome.t list ref;
  }

  let client_id = 3

  let create () =
    let engine = Sim.Engine.create () in
    let topo = Cluster.Topology.make ~n_servers:3 ~n_clients:1 () in
    let queue = Queue.create () and sent = ref [] and reported = ref [] in
    let ctx self =
      {
        Cluster.Net.self;
        engine;
        rng = Sim.Rng.create 1;
        topo;
        clock = Sim.Clock.perfect;
        send =
          (fun ~dst msg ->
            if Int.equal self client_id then sent := (dst, P.msg_phase msg) :: !sent;
            Queue.add (self, dst, msg) queue);
        timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
      }
    in
    let servers = Array.init 3 (fun i -> P.make_server (ctx i)) in
    let client = P.make_client (ctx client_id) ~report:(fun o -> reported := o :: !reported) in
    { client; servers; queue; sent; reported }

  (* One hop: deliver every queued message from a node [from] accepts;
     the rest stay queued. [edit] reorders or copies the hop's batch
     first. *)
  let deliver ?(from = fun _ -> true) ?(edit = Fun.id) r =
    let batch = edit (List.of_seq (Queue.to_seq r.queue)) in
    Queue.clear r.queue;
    List.iter
      (fun ((src, dst, msg) as m) ->
        if not (from src) then Queue.add m r.queue
        else if Int.equal dst client_id then P.client_handle r.client ~src msg
        else P.server_handle r.servers.(dst) ~src msg)
      batch

  let hops r n = for _ = 1 to n do deliver r done

  let take_sent r =
    let s = List.rev !(r.sent) in
    r.sent := [];
    s

  let submit r txn = P.submit r.client txn

  (* The queued messages, oldest first. *)
  let queued r = List.of_seq (Queue.to_seq r.queue)
end

let outcome_is status = function
  | [ o ] -> o.Outcome.status = status
  | _ -> false

let timed_out = Outcome.Aborted Outcome.Timed_out

let sends =
  Alcotest.(list (pair int (of_pp (fun ppf p -> Fmt.string ppf (Obs.Phase.to_string p)))))

(* Shot 1 reads on server 0, shot 2 on server 1, shot 3 writes on
   server 2. *)
let three_shots () =
  Txn.make ~client:3 [ [ Types.Read 0 ]; [ Types.Read 1 ]; [ Types.Write (2, 7) ] ]

let read_only_three_shots () =
  Txn.make ~client:3 [ [ Types.Read 0 ]; [ Types.Read 1 ]; [ Types.Read 2 ] ]

(* The request-timeout contract: a cancel reports exactly one
   [Aborted Timed_out] and tells only the servers that hold state for
   the attempt. [mid] is a run of [hops] after submitting [txn], then a
   cancel expected to send [aborts]. *)
let check_cancel (module P : PROTO) ~mid =
  let module R = Rig (P) in
  (* nothing in flight: the timeout is still reported, once *)
  let r = R.create () in
  let idle = P.cancel r.R.client (three_shots ()) in
  Alcotest.(check bool) "idle cancel is Cancelled" true (idle = `Cancelled);
  Alcotest.(check bool) "idle cancel reports one Timed_out" true
    (outcome_is timed_out !(r.R.reported));
  Alcotest.check sends "idle cancel sends nothing" [] (R.take_sent r);
  List.iter
    (fun (what, txn, hops, aborts) ->
      let r = R.create () in
      R.submit r txn;
      R.hops r hops;
      ignore (R.take_sent r);
      Alcotest.(check bool) (what ^ ": nothing reported yet") true (!(r.R.reported) = []);
      let res = P.cancel r.R.client txn in
      Alcotest.(check bool) (what ^ ": Cancelled") true (res = `Cancelled);
      Alcotest.(check bool) (what ^ ": one Timed_out") true
        (outcome_is timed_out !(r.R.reported));
      Alcotest.check sends (what ^ ": aborts") aborts (R.take_sent r);
      (* a second cancel finds nothing in flight *)
      ignore (P.cancel r.R.client txn);
      Alcotest.check sends (what ^ ": second cancel sends nothing") [] (R.take_sent r))
    mid

let abort_at servers = List.map (fun s -> (s, Obs.Phase.Abort)) servers

(* TAPIR-CC, MVTO and d2PL abort the servers contacted so far, newest
   first: cancelled while shot 2 is out, servers 1 and 0. *)
let contacted_cases = [ ("shot 2 out", three_shots (), 2, abort_at [ 1; 0 ]) ]

let cancel_docc () =
  check_cancel
    (module Docc)
    ~mid:
      [
        ("executing", three_shots (), 2, []);
        ("preparing", three_shots (), 4, abort_at [ 0; 1; 2 ]);
      ]

let cancel_d2pl_nw () = check_cancel (module D2pl_nw) ~mid:contacted_cases
let cancel_d2pl_ww () = check_cancel (module D2pl_ww) ~mid:contacted_cases
let cancel_tapir () = check_cancel (module Tapir) ~mid:contacted_cases

let cancel_mvto () =
  check_cancel
    (module Mvto)
    ~mid:(("read-only", read_only_three_shots (), 2, []) :: contacted_cases)

(* Janus-CC aborts every participant while pre-accepting, including the
   one it has not pre-accepted at yet. *)
let cancel_janus () =
  check_cancel (module Tr) ~mid:[ ("pre-accepting", three_shots (), 2, abort_at [ 0; 1; 2 ]) ]

(* After Commit, Janus-CC is past its point of no return: a cancel
   retransmits Commit to the servers it has not heard from, reports
   nothing and keeps waiting. *)
let janus_cancel_after_commit_keeps_waiting () =
  let module R = Rig (Tr) in
  let r = R.create () in
  let txn = three_shots () in
  R.submit r txn;
  (* three pre-accept rounds, then Commit reaches the servers *)
  R.hops r 7;
  R.deliver ~from:(fun src -> Int.equal src 0) r;
  ignore (R.take_sent r);
  let res = Tr.cancel r.R.client txn in
  Alcotest.(check bool) "Keep_waiting" true (res = `Keep_waiting);
  Alcotest.(check bool) "nothing reported" true (!(r.R.reported) = []);
  Alcotest.check sends "Commit to the laggards only"
    [ (1, Obs.Phase.Commit); (2, Obs.Phase.Commit) ]
    (R.take_sent r);
  (* the retransmitted round completes the attempt *)
  R.hops r 4;
  Alcotest.(check bool) "committed" true (outcome_is Outcome.Committed !(r.R.reported))

(* A coordinator drops a transaction's attempt counter when it commits:
   txn ids are never resubmitted after commit, so a kept counter is a
   per-transaction leak over a long run. *)
let commit_drops_attempt_counter () =
  let check (type c) name (module P : PROTO with type client = c)
      (attempts : c -> int Intmap.t) =
    let module R = Rig (P) in
    let r = R.create () in
    let txn = three_shots () in
    R.submit r txn;
    Alcotest.(check bool) (name ^ ": counter while in flight") true
      (Option.is_some (Intmap.find_opt (attempts r.R.client) txn.Txn.id));
    R.hops r 12;
    Alcotest.(check bool) (name ^ ": committed") true
      (outcome_is Outcome.Committed !(r.R.reported));
    Alcotest.(check bool) (name ^ ": counter dropped at commit") false
      (Option.is_some (Intmap.find_opt (attempts r.R.client) txn.Txn.id))
  in
  check "dOCC" (module Docc) (fun c -> c.Baselines.Coord.attempts);
  check "d2PL-NW" (module D2pl_nw) (fun c -> c.D2pl.coord.Baselines.Coord.attempts);
  check "d2PL-WW" (module D2pl_ww) (fun c -> c.D2pl.coord.Baselines.Coord.attempts);
  check "Janus-CC" (module Tr) (fun c -> c.Baselines.Coord.attempts);
  check "TAPIR-CC" (module Tapir) (fun c -> c.Baselines.Coord.attempts);
  check "MVTO" (module Mvto) (fun c -> c.Baselines.Coord.attempts)

(* --- the participant contract, per baseline server ------------------- *)

(* What the contract tests read of a server: its store, and the verdict
   a server reply carries ([None] for any other message). *)
module type PART = sig
  include PROTO

  val store_of : server -> Mvstore.Store.t
  val reply_ok : msg -> bool option
end

module Docc_part = struct
  include Docc

  let store_of s = s.part.Baselines.Part.store

  let reply_ok = function
    | Prepare_reply { p_ok; _ } -> Some p_ok
    | Exec_reply _ -> Some true
    | Exec _ | Prepare _ | Decide _ -> None
end

let d2pl_reply_ok = function
  | D2pl.Acquire_reply { r_ok; _ } -> Some r_ok
  | D2pl.Acquire _ | D2pl.Wound _ | D2pl.Decide _ -> None

module D2pl_nw_part = struct
  include D2pl_nw

  let store_of s = s.part.Baselines.Part.store
  let reply_ok = d2pl_reply_ok
end

module D2pl_ww_part = struct
  include D2pl_ww

  let store_of s = s.part.Baselines.Part.store
  let reply_ok = d2pl_reply_ok
end

module Tapir_part = struct
  include Tapir

  let store_of s = s.part.Baselines.Part.store

  let reply_ok = function
    | Prepare_reply { p_ok; _ } -> Some p_ok
    | Prepare _ | Decide _ -> None
end

module Mvto_part = struct
  include Mvto

  let store_of s = s.part.Baselines.Part.store

  let reply_ok = function
    | Exec_reply { e_ok; _ } -> Some e_ok
    | Exec _ | Decide _ -> None
end

(* One shot that writes keys 0 and 1 (servers 0 and 1): the first round
   of every baseline installs there. *)
let two_writes () = Txn.make ~client:3 [ [ Types.Write (0, 7); Types.Write (1, 8) ] ]

(* Reads then writes keys 0 and 1: it commits only if no lock, no
   undecided version and no raised read mark is left on them. *)
let read_then_write () =
  Txn.make ~client:3
    [ [ Types.Read 0; Types.Read 1 ]; [ Types.Write (0, 9); Types.Write (1, 9) ] ]

let committed_txn (txn : Txn.t) =
  List.exists (fun (o : Outcome.t) ->
      o.Outcome.txn.Txn.id = txn.Txn.id && o.Outcome.status = Outcome.Committed)

let check_participant (module P : PART) ~dup_replies =
  let module R = Rig (P) in
  let created (r : R.t) =
    Array.to_list r.R.servers
    |> List.map (fun s -> Mvstore.Store.versions_created (P.store_of s))
  in
  let server_replies (r : R.t) =
    List.filter_map
      (fun (src, dst, m) ->
        if src < R.client_id && Int.equal dst R.client_id then P.reply_ok m else None)
      (R.queued r)
  in
  (* a Decide that overtakes the first round: the round is refused,
     nothing is installed and no lock is left behind *)
  let r = R.create () in
  let txn = two_writes () in
  R.submit r txn;
  ignore (P.cancel r.R.client txn);
  R.deliver ~edit:List.rev r;
  Alcotest.(check (list bool)) "overtaken round refused" [ false; false ] (server_replies r);
  Alcotest.(check (list int)) "overtaken round installs nothing" [ 0; 0; 0 ] (created r);
  let next = read_then_write () in
  R.submit r next;
  R.hops r 12;
  Alcotest.(check bool) "nothing held: a later writer commits" true
    (committed_txn next !(r.R.reported));
  (* a duplicated round is served once *)
  let r = R.create () in
  let txn = two_writes () in
  R.submit r txn;
  R.deliver ~edit:(List.concat_map (fun m -> [ m; m ])) r;
  Alcotest.(check int) "duplicated round: replies" dup_replies (List.length (server_replies r));
  Alcotest.(check (list int)) "duplicated round installs once" [ 1; 1; 0 ] (created r);
  R.hops r 4;
  Alcotest.(check bool) "committed" true (committed_txn txn !(r.R.reported));
  (* a duplicated Decide is a no-op: the stores end as with one copy,
     and no server sends anything *)
  let decided edit =
    Mvstore.Store.reset_vids ();
    let r = R.create () in
    let txn = two_writes () in
    R.submit r txn;
    R.hops r 2;
    Alcotest.(check bool) "committed before the Decides land" true
      (committed_txn txn !(r.R.reported));
    R.deliver ~edit r;
    Alcotest.(check int) "nothing sent after the Decides" 0 (List.length (R.queued r));
    Array.to_list r.R.servers
    |> List.concat_map (fun s ->
           let st = P.store_of s in
           List.map
             (fun key ->
               let latest = Mvstore.Store.most_recent st key in
               ( Mvstore.Store.committed_order st key,
                 latest.Mvstore.Store.status = Mvstore.Store.Committed ))
             [ 0; 1 ])
  in
  Alcotest.(check (list (pair (list int) bool)))
    "duplicated Decide is a no-op" (decided Fun.id)
    (decided (List.concat_map (fun m -> [ m; m ])))

(* Replies from the two servers to a duplicated round: dOCC answers a
   duplicated Prepare again, the others drop it. *)
let participant_docc () = check_participant (module Docc_part) ~dup_replies:4
let participant_d2pl_nw () = check_participant (module D2pl_nw_part) ~dup_replies:2
let participant_d2pl_ww () = check_participant (module D2pl_ww_part) ~dup_replies:2
let participant_tapir () = check_participant (module Tapir_part) ~dup_replies:2
let participant_mvto () = check_participant (module Mvto_part) ~dup_replies:2

(* --- identity golden: short seeded runs through the whole stack ------- *)

(* Seeded [Runner.run]s per baseline, pinned byte for byte in the shape
   of test/golden/ncc_tpcc_runs.txt: committed count, attempts,
   messages, every counter, the in-window aborts by reason, the checker
   line and the trace digest.
   TPC-C is multi-shot and contended (rounds, locks, wounds, parked
   reads); its faulted run duplicates and delays messages under a
   request timeout, but drops none. *)
let runs_pinned () =
  let module R = Harness.Runner in
  let tpcc () = Workload.Tpcc.make ~n_servers:8 () in
  let f1 () = Workload.Google_f1.make () in
  let cfg ?(faulty = false) check load =
    {
      R.default with
      R.seed = 3;
      n_servers = 8;
      n_clients = 24;
      offered_load = load;
      warmup = 0.02;
      duration = 0.15;
      drain = 0.1;
      check;
      request_timeout = (if faulty then Some 0.01 else None);
      faults =
        (if faulty then
           { Cluster.Faults.none with duplicate = 0.02; delay_prob = 0.05; delay_extra = 0.02 }
         else Cluster.Faults.none);
    }
  in
  let line (proto, level) (what, w, faulty, load) =
    let check = match level with `Strict -> R.Streaming | `Ser -> R.Serializable in
    Sim.Trace.reset_digest ();
    Sim.Trace.enable_digest ();
    let r = R.run proto (w ()) (cfg ~faulty check load) in
    let digest = Sim.Trace.digest () in
    Sim.Trace.disable_digest ();
    Printf.sprintf
      "%s %s committed=%d attempts=%d messages=%d\n  %s\n  aborts: %s\n  check=%s\n  digest=%s\n"
      r.R.protocol what r.R.committed r.R.attempts r.R.messages
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) r.R.counters))
      (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.R.aborts))
      r.R.check_result digest
  in
  let runs =
    [
      ("tpcc", tpcc, false, 6_000.0);
      ("tpcc faults", tpcc, true, 6_000.0);
      ("google-f1", f1, false, 8_000.0);
    ]
  in
  Golden.check ~name:"baseline_runs.txt"
    (String.concat ""
       (List.concat_map
          (fun p -> List.map (line p) runs)
          Baselines.
            [
              (docc, `Strict);
              (d2pl_no_wait, `Strict);
              (d2pl_wound_wait, `Strict);
              (tapir_cc, `Ser);
              (mvto, `Ser);
            ]))

let suite =
  [
    Alcotest.test_case "commit drops the attempt counter" `Quick
      commit_drops_attempt_counter;
    Alcotest.test_case "dOCC cancel contract" `Quick cancel_docc;
    Alcotest.test_case "d2PL-NW cancel contract" `Quick cancel_d2pl_nw;
    Alcotest.test_case "d2PL-WW cancel contract" `Quick cancel_d2pl_ww;
    Alcotest.test_case "Janus-CC cancel contract" `Quick cancel_janus;
    Alcotest.test_case "TAPIR-CC cancel contract" `Quick cancel_tapir;
    Alcotest.test_case "MVTO cancel contract" `Quick cancel_mvto;
    Alcotest.test_case "dOCC participant contract" `Quick participant_docc;
    Alcotest.test_case "d2PL-NW participant contract" `Quick participant_d2pl_nw;
    Alcotest.test_case "d2PL-WW participant contract" `Quick participant_d2pl_ww;
    Alcotest.test_case "TAPIR-CC participant contract" `Quick participant_tapir;
    Alcotest.test_case "MVTO participant contract" `Quick participant_mvto;
    Alcotest.test_case "seeded runs match the golden" `Quick runs_pinned;
    Alcotest.test_case "Janus-CC cancel after Commit keeps waiting" `Quick
      janus_cancel_after_commit_keeps_waiting;
    Alcotest.test_case "dOCC validation detects stale read" `Quick
      docc_validation_detects_stale_read;
    Alcotest.test_case "dOCC contention window (Fig 2a)" `Quick
      docc_contention_window_aborts_reader;
    Alcotest.test_case "d2PL no-wait aborts on conflict" `Quick no_wait_aborts_on_conflict;
    Alcotest.test_case "d2PL wound-wait wounds younger" `Quick
      wound_wait_wounds_younger_holder;
    Alcotest.test_case "d2PL wound-wait younger waits" `Quick wound_wait_younger_waits;
    Alcotest.test_case "TAPIR rejects write under read" `Quick tapir_rejects_write_under_read;
    Alcotest.test_case "TAPIR read aborts on pending" `Quick tapir_read_aborts_on_pending;
    Alcotest.test_case "MVTO reads stale versions" `Quick mvto_reads_stale_versions;
    Alcotest.test_case "MVTO read parks on undecided" `Quick mvto_read_parks_on_undecided;
    Alcotest.test_case "MVTO write rejected under read" `Quick mvto_write_rejected_under_read;
    Alcotest.test_case "Janus tracks dependencies" `Quick janus_tracks_dependencies;
    Alcotest.test_case "Janus dependency-ordered execution" `Quick
      janus_executes_in_dependency_order;
    Alcotest.test_case "Janus breaks mutual cycles by id" `Quick
      janus_breaks_mutual_cycle_by_id;
  ]
