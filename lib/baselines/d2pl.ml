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

(* One Acquire message being served; wound-wait requests may complete
   asynchronously as polled locks are granted. *)
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
  part : Part.t;
  mutable n_lock_fails : int;
  mutable n_wounds : int;
}

let make_server variant ctx =
  { ctx; variant; part = Part.create (); n_lock_fails = 0; n_wounds = 0 }

(* Perform the operation once its lock is held. *)
let execute_op s (a : Part.attempt) ~ts ~wire op =
  let store = s.part.Part.store in
  match op with
  | Types.Read key -> Common.result_of_read (Store.most_recent_committed store key) key
  | Types.Write (key, value) ->
    let v = Store.write store key value ~ts ~writer:wire in
    a.Part.versions <- (key, v) :: a.Part.versions;
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

(* A round its Decide overtook (e.g. a wounded attempt's) is refused; a
   duplicate of a round served here is dropped, as re-executing would
   install duplicate versions (the client drops the reply it
   duplicates). *)
let acquire s ~src ~wire ~round ~ts ~exclusive ops =
  match Part.admit s.part ~wire ~client:src ~round with
  | `Decided ->
    s.ctx.send ~dst:src
      (Acquire_reply { r_wire = wire; r_round = round; r_ok = false; r_results = [] })
  | `Duplicate -> ()
  | `Serve a ->
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
          match Part.lock s.part a key ~owner ~mode with
          | `Granted ->
            if not pm.pm_failed then
              pm.pm_results <- execute_op s a ~ts ~wire op :: pm.pm_results
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
                       match Part.find s.part h.Locks.txn with
                       | Some victim ->
                         s.ctx.send ~dst:victim.Part.client (Wound { w_wire = h.Locks.txn })
                       | None -> ()
                     end)
                   hs
               in
               wound holders;
               pm.pm_waiting <- pm.pm_waiting + 1;
               let rec poll () =
                 if Part.is_decided s.part wire then begin
                   pm.pm_waiting <- pm.pm_waiting - 1;
                   pm.pm_failed <- true;
                   reply_pending s pm
                 end
                 else
                   match Part.lock s.part a key ~owner ~mode with
                   | `Granted ->
                     pm.pm_waiting <- pm.pm_waiting - 1;
                     pm.pm_results <- execute_op s a ~ts ~wire op :: pm.pm_results;
                     reply_pending s pm
                   | `Conflict hs ->
                     wound hs;
                     s.ctx.timer ~delay:2e-4 poll
               in
               s.ctx.timer ~delay:2e-4 poll))
      ops;
    reply_pending s pm

let server_handle s ~src msg =
  match msg with
  | Acquire { a_wire; a_round; a_ts; a_ops; a_exclusive; _ } ->
    acquire s ~src ~wire:a_wire ~round:a_round ~ts:a_ts ~exclusive:a_exclusive a_ops
  | Decide { d_wire; d_commit } -> Part.decide s.part ~wire:d_wire ~commit:d_commit
  | Acquire_reply _ | Wound _ -> ()

(* --- client --------------------------------------------------------- *)

type client = {
  coord : msg Coord.t;
  cvariant : variant;
  mutable n_wounded : int;
}

let decide_msg wire commit = Decide { d_wire = wire; d_commit = commit }

let make_client cvariant cctx ~report =
  { coord = Coord.create cctx ~report ~decide:decide_msg; cvariant; n_wounded = 0 }

(* The wound-wait prepare round (the attempt's final round) locks its
   writes exclusively. *)
let acquire_msg (a : Coord.attempt) ops =
  Acquire
    {
      a_wire = a.wire;
      a_round = a.round;
      a_ts = a.ts;
      a_ops = ops;
      a_exclusive = a.final;
      a_bytes = a.txn.Txn.bytes;
    }

let send_round c a ops =
  Coord.send_round c.coord a ~contact:true acquire_msg
    (Cluster.Topology.ops_by_server c.coord.ctx.topo ops)

(* In no-wait, writes lock and execute with their shot. In wound-wait,
   the execute phase sends only reads; writes go in a prepare round.
   Every contacted server hears the Decide. *)
let rec advance c (a : Coord.attempt) =
  match a.shots with
  | shot :: rest ->
    a.shots <- rest;
    let ops =
      match c.cvariant with
      | No_wait -> shot
      | Wound_wait -> List.filter (fun op -> not (Types.is_write op)) shot
    in
    if ops = [] then advance c a else send_round c a ops
  | [] ->
    (match c.cvariant with
     | No_wait -> Coord.commit c.coord a
     | Wound_wait ->
       let writes = List.filter Types.is_write (Txn.ops a.txn) in
       if writes = [] || a.final then Coord.commit c.coord a
       else begin
         a.final <- true;
         send_round c a writes
       end)

let submit c txn = advance c (Coord.start c.coord txn)

let client_handle c ~src msg =
  match msg with
  | Acquire_reply { r_wire; r_round; r_ok; r_results } ->
    (match Coord.tally c.coord ~src ~wire:r_wire ~round:r_round ~ok:r_ok r_results with
     | Some a when a.Coord.awaiting = 0 ->
       if a.ok then advance c a
       else
         Coord.abort c.coord a
           (match c.cvariant with
            | No_wait -> Outcome.Lock_unavailable
            | Wound_wait -> Outcome.Wounded)
     | Some _ | None -> ())
  | Wound { w_wire } ->
    (match Coord.find c.coord w_wire with
     | None -> ()  (* already decided: the wound is moot *)
     | Some a ->
       c.n_wounded <- c.n_wounded + 1;
       Coord.abort c.coord a Outcome.Wounded)
  | Acquire _ | Decide _ -> ()

(* Request timeout: the abort Decides release every lock and undecided
   version on contacted servers; a server's decided set refuses any
   Acquire still in flight, and the wound-wait poll loop observes the
   decision and fails its pending request. *)
let cancel c txn = Coord.cancel c.coord txn

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
    let server_stores s = [ s.part.Part.store ]

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
