(* Distributed two-phase locking (d2PL), in the two fully-optimized
   variants the paper evaluates (§5):

   - no-wait: the execute and prepare phases are combined into a single
     round (as the paper does for its baselines). Each shot acquires
     shared locks for reads and exclusive locks for writes immediately;
     any unavailable lock aborts the attempt. One-shot transactions
     finish in 1 RTT with asynchronous commit (2 message rounds).

   - wound-wait: reads lock (shared) during execute, writes lock
     (exclusive) in a separate prepare round; conflicts are resolved by
     priority: an older requester (smaller timestamp) wounds younger
     holders, a younger requester waits. Wounds are advisory - the
     victim's coordinator aborts it through the normal abort path, so
     locks are never revoked under a transaction that may be
     committing. 2 RTT with asynchronous commit (3 message rounds).

   Writes are installed as undecided versions at lock-acquisition time
   and flipped/discarded by the asynchronous commit/abort round. *)

open Kernel
module Store = Mvstore.Store
module Locks = Mvstore.Locks

type variant = No_wait | Wound_wait

type msg =
  | Acquire of {
      a_wire : int;
      a_round : int;           (* round number within the attempt *)
      a_ts : Ts.t;
      a_ops : Types.op list;   (* lock+execute: reads and (no-wait) writes *)
      a_exclusive : bool;      (* wound-wait prepare round: writes only *)
      a_bytes : int;
    }
  | Acquire_reply of {
      r_wire : int;
      r_round : int;           (* echo of a_round *)
      r_ok : bool;
      r_results : Common.rres list;
    }
  | Wound of { w_wire : int }  (* server -> victim's coordinator *)
  | Decide of { d_wire : int; d_commit : bool }

let msg_cost (c : Harness.Cost.t) = function
  | Acquire a -> Harness.Cost.server c ~ops:(List.length a.a_ops) ~bytes:a.a_bytes ()
  | Decide _ -> Harness.Cost.server c ()
  | Acquire_reply r -> Harness.Cost.server c ~ops:(List.length r.r_results) ()
  | Wound _ -> Harness.Cost.server c ()

let msg_phase : msg -> Obs.Phase.t = function
  | Acquire _ -> Obs.Phase.Execute
  | Acquire_reply _ -> Obs.Phase.Reply
  | Wound _ -> Obs.Phase.Abort
  | Decide { d_commit = true; _ } -> Obs.Phase.Commit
  | Decide _ -> Obs.Phase.Abort

(* --- server --------------------------------------------------------- *)

type txn_state = {
  mutable h_keys : Types.key list;  (* keys with locks held here *)
  mutable h_versions : (Types.key * Store.version) list;  (* installed writes *)
  mutable h_max_round : int;  (* highest Acquire round processed *)
  h_client : Types.node_id;
}

(* One Acquire message being served; wound-wait requests may complete
   asynchronously as queued locks are granted. *)
type pending_msg = {
  pm_wire : int;
  pm_round : int;
  pm_src : Types.node_id;
  mutable pm_waiting : int;
  mutable pm_results : Common.rres list;
  mutable pm_failed : bool;
}

type server = {
  ctx : msg Cluster.Net.ctx;
  variant : variant;
  store : Store.t;
  locks : Locks.t;
  txns : (int, txn_state) Hashtbl.t;
  decided : (int, bool) Hashtbl.t;
  mutable n_lock_fails : int;
  mutable n_wounds : int;
}

let make_server variant ctx =
  {
    ctx;
    variant;
    store = Store.create ();
    locks = Locks.create ();
    txns = Hashtbl.create 256;
    decided = Hashtbl.create 4096;
    n_lock_fails = 0;
    n_wounds = 0;
  }

let txn_state s ~wire ~client =
  match Hashtbl.find_opt s.txns wire with
  | Some st -> st
  | None ->
    let st = { h_keys = []; h_versions = []; h_max_round = 0; h_client = client } in
    Hashtbl.add s.txns wire st;
    st

(* Perform the operation once its lock is held. *)
let execute_op s st ~ts ~wire op =
  match op with
  | Types.Read key -> Common.result_of_read (Store.most_recent_committed s.store key) key
  | Types.Write (key, value) ->
    let v = Store.write s.store key value ~ts ~writer:wire in
    st.h_versions <- (key, v) :: st.h_versions;
    Common.result_of_write v key

let reply_pending s pm =
  if pm.pm_waiting = 0 then
    s.ctx.send ~dst:pm.pm_src
      (Acquire_reply
         {
           r_wire = pm.pm_wire;
           r_round = pm.pm_round;
           r_ok = not pm.pm_failed;
           r_results = pm.pm_results;
         })

let release_all s ~wire =
  match Hashtbl.find_opt s.txns wire with
  | None -> ()
  | Some st ->
    Hashtbl.remove s.txns wire;
    List.iter (fun key -> Locks.release s.locks key ~txn:wire) st.h_keys;
    st.h_keys <- []

let decide s ~wire ~commit =
  if not (Hashtbl.mem s.decided wire) then begin
    Hashtbl.replace s.decided wire commit;
    (match Hashtbl.find_opt s.txns wire with
     | None -> ()
     | Some st ->
       List.iter
         (fun (key, v) ->
           if commit then Store.commit_in s.store key v else Store.abort_version s.store key v)
         st.h_versions);
    release_all s ~wire
  end

let acquire s ~src (a : int * int * Ts.t * Types.op list * bool * int) =
  let wire, round, ts, ops, exclusive, _bytes = a in
  if Hashtbl.mem s.decided wire then
    (* late round of an attempt already aborted (e.g. wounded) *)
    s.ctx.send ~dst:src
      (Acquire_reply { r_wire = wire; r_round = round; r_ok = false; r_results = [] })
  else begin
    let st = txn_state s ~wire ~client:src in
    if round <= st.h_max_round then
      (* duplicate delivery of a round already processed here:
         re-executing would install duplicate versions. Drop it; the
         reply it duplicates is deduplicated client-side. *)
      ()
    else begin
    st.h_max_round <- round;
    let owner = { Locks.txn = wire; ts } in
    let pm =
      { pm_wire = wire; pm_round = round; pm_src = src; pm_waiting = 0;
        pm_results = []; pm_failed = false }
    in
    let mode_of op =
      if exclusive || Types.is_write op then Locks.Exclusive else Locks.Shared
    in
    List.iter
      (fun op ->
        let key = Types.op_key op in
        let mode = mode_of op in
        if pm.pm_failed && s.variant = No_wait then ()
        else
          match Locks.try_acquire s.locks key ~owner ~mode with
          | `Granted ->
            if not (Types.mem_key key st.h_keys) then st.h_keys <- key :: st.h_keys;
            if not pm.pm_failed then
              pm.pm_results <- execute_op s st ~ts ~wire op :: pm.pm_results
          | `Conflict holders ->
            (match s.variant with
             | No_wait ->
               s.n_lock_fails <- s.n_lock_fails + 1;
               pm.pm_failed <- true
             | Wound_wait ->
               (* Older requester wounds younger holders (advisory: the
                  victim's coordinator aborts it through the normal
                  abort path, so locks are never yanked from under a
                  possibly-committing transaction); then it polls for
                  the lock, re-wounding any younger holder it finds, so
                  the wound-wait invariant survives lock handoffs. *)
               let wound hs =
                 List.iter
                   (fun (h : Locks.owner) ->
                     if Ts.(ts < h.Locks.ts) then begin
                       s.n_wounds <- s.n_wounds + 1;
                       match Hashtbl.find_opt s.txns h.Locks.txn with
                       | Some victim ->
                         s.ctx.send ~dst:victim.h_client (Wound { w_wire = h.Locks.txn })
                       | None -> ()
                     end)
                   hs
               in
               wound holders;
               pm.pm_waiting <- pm.pm_waiting + 1;
               let rec poll () =
                 if Hashtbl.mem s.decided wire then begin
                   pm.pm_waiting <- pm.pm_waiting - 1;
                   pm.pm_failed <- true;
                   reply_pending s pm
                 end
                 else
                   match Locks.try_acquire s.locks key ~owner ~mode with
                   | `Granted ->
                     pm.pm_waiting <- pm.pm_waiting - 1;
                     if not (Types.mem_key key st.h_keys) then st.h_keys <- key :: st.h_keys;
                     pm.pm_results <- execute_op s st ~ts ~wire op :: pm.pm_results;
                     reply_pending s pm
                   | `Conflict hs ->
                     wound hs;
                     s.ctx.timer ~delay:2e-4 poll
               in
               s.ctx.timer ~delay:2e-4 poll))
      ops;
    reply_pending s pm
    end
  end

let server_handle s ~src msg =
  match msg with
  | Acquire { a_wire; a_round; a_ts; a_ops; a_exclusive; a_bytes } ->
    acquire s ~src (a_wire, a_round, a_ts, a_ops, a_exclusive, a_bytes)
  | Decide { d_wire; d_commit } -> decide s ~wire:d_wire ~commit:d_commit
  | Acquire_reply _ | Wound _ -> ()

(* --- client --------------------------------------------------------- *)

type phase = Executing | Preparing

type inflight = {
  f_txn : Txn.t;
  f_wire : int;
  f_ts : Ts.t;
  mutable f_phase : phase;
  mutable f_shots : Txn.shot list;
  mutable f_awaiting : int;
  mutable f_round : int;  (* current round; stamps Acquire messages *)
  mutable f_replied : Types.node_id list;  (* servers heard this round *)
  mutable f_results : Common.rres list;
  mutable f_ok : bool;
  mutable f_contacted : Types.node_id list;
}

type client = {
  cctx : msg Cluster.Net.ctx;
  cvariant : variant;
  report : Outcome.t -> unit;
  inflight : inflight Intmap.t;
  attempts : Common.attempt_counter;
  ts_floor : int ref;
  mutable n_wounded : int;
}

let make_client cvariant cctx ~report =
  {
    cctx;
    cvariant;
    report;
    inflight = Intmap.create ();
    attempts = Intmap.create ();
    ts_floor = ref 0;
    n_wounded = 0;
  }

let send_round c f ops ~exclusive =
  let by_server = Cluster.Topology.ops_by_server c.cctx.topo ops in
  f.f_awaiting <- List.length by_server;
  f.f_round <- f.f_round + 1;
  f.f_replied <- [];
  List.iter
    (fun (server, ops) ->
      if not (Types.mem_node server f.f_contacted) then f.f_contacted <- server :: f.f_contacted;
      c.cctx.send ~dst:server
        (Acquire
           {
             a_wire = f.f_wire;
             a_round = f.f_round;
             a_ts = f.f_ts;
             a_ops = ops;
             a_exclusive = exclusive;
             a_bytes = f.f_txn.Txn.bytes;
           }))
    by_server

let finish c f ~commit ~reason =
  Intmap.remove c.inflight f.f_wire;
  if commit then Common.drop_attempt c.attempts f.f_txn.Txn.id;
  List.iter
    (fun server -> c.cctx.send ~dst:server (Decide { d_wire = f.f_wire; d_commit = commit }))
    f.f_contacted;
  let status = if commit then Outcome.Committed else Outcome.Aborted reason in
  c.report
    (Common.outcome ~txn:f.f_txn ~status ~results:(List.rev f.f_results)
       ~commit_ts:(if commit then Some f.f_ts else None))

(* In no-wait, writes lock and execute with their shot. In wound-wait,
   the execute phase sends only reads; writes go in a prepare round. *)
let rec advance c f =
  match f.f_shots with
  | shot :: rest ->
    f.f_shots <- rest;
    let ops =
      match c.cvariant with
      | No_wait -> shot
      | Wound_wait -> List.filter (fun op -> not (Types.is_write op)) shot
    in
    if ops = [] then advance c f else send_round c f ops ~exclusive:false
  | [] ->
    (match c.cvariant with
     | No_wait -> finish c f ~commit:true ~reason:(Outcome.Other "")
     | Wound_wait ->
       let writes = List.filter Types.is_write (Txn.ops f.f_txn) in
       if writes = [] || f.f_phase = Preparing then
         finish c f ~commit:true ~reason:(Outcome.Other "")
       else begin
         f.f_phase <- Preparing;
         send_round c f writes ~exclusive:true
       end)

let submit c txn =
  Common.reject_dynamic txn;
  let attempt = Common.next_attempt c.attempts txn.Txn.id in
  let wire = Common.wire_id ~txn_id:txn.Txn.id ~attempt in
  let f =
    {
      f_txn = txn;
      f_wire = wire;
      f_ts = Common.clock_ts c.cctx ~floor:c.ts_floor;
      f_phase = Executing;
      f_shots = txn.Txn.shots;
      f_awaiting = 0;
      f_round = 0;
      f_replied = [];
      f_results = [];
      f_ok = true;
      f_contacted = [];
    }
  in
  Intmap.replace c.inflight wire f;
  advance c f

let client_handle c ~src msg =
  match msg with
  | Acquire_reply { r_wire; r_round; r_ok; r_results } ->
    (match Intmap.find_opt c.inflight r_wire with
     | None -> ()
     | Some f when r_round <> f.f_round || Types.mem_node src f.f_replied ->
       () (* stale round, or a duplicate delivery of this round's reply *)
     | Some f ->
       f.f_replied <- src :: f.f_replied;
       if not r_ok then f.f_ok <- false;
       f.f_results <- List.rev_append r_results f.f_results;
       f.f_awaiting <- f.f_awaiting - 1;
       if f.f_awaiting = 0 then
         if f.f_ok then advance c f
         else
           finish c f ~commit:false
             ~reason:
               (match c.cvariant with
                | No_wait -> Outcome.Lock_unavailable
                | Wound_wait -> Outcome.Wounded))
  | Wound { w_wire } ->
    (match Intmap.find_opt c.inflight w_wire with
     | None -> ()  (* already decided: the wound is moot *)
     | Some f ->
       c.n_wounded <- c.n_wounded + 1;
       finish c f ~commit:false ~reason:Outcome.Wounded)
  | Acquire _ | Decide _ -> ()

(* Request timeout: abandon the attempt. The abort Decides release
   every lock and undecided version on contacted servers; a server's
   decided set refuses any Acquire still in flight, and the wound-wait
   poll loop observes the decision and fails its pending request. *)
let cancel c txn =
  let f =
    Option.bind
      (Common.current_wire c.attempts ~txn_id:txn.Txn.id)
      (Intmap.find_opt c.inflight)
  in
  (match f with
   | Some f -> finish c f ~commit:false ~reason:Outcome.Timed_out
   | None -> c.report (Outcome.aborted ~reason:Outcome.Timed_out txn));
  `Cancelled

(* --- protocol values -------------------------------------------------- *)

let make variant name : Harness.Protocol.t =
  (module struct
    let name = name

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server variant
    let server_handle = server_handle
    let server_stores s = [ s.store ]

    let server_counters s =
      [
        ("lock_fails", float_of_int s.n_lock_fails);
        ("wounds", float_of_int s.n_wounds);
      ]

    type nonrec client = client

    let make_client = make_client variant
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters c = [ ("wounded_txns", float_of_int c.n_wounded) ]

    include Harness.Protocol.No_replicas
  end)

let no_wait = make No_wait "d2PL-NW"
let wound_wait = make Wound_wait "d2PL-WW"
