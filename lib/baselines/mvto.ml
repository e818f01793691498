(* Multiversion timestamp ordering (MVTO, Reed '83): the serializable
   protocol with the highest best-case performance in the paper's
   comparison (§5.4, "a performance upper bound"). One execution round:
   a read at timestamp ts returns the latest version with t_w <= ts —
   stale reads are allowed, so reads never abort (they may briefly wait
   on an undecided version's fate); a write at ts aborts only when a
   later read has already observed the version it would supersede.
   Commit is asynchronous; read-only transactions send no commit round
   at all, matching NCC's read-only message count. *)

open Kernel
module Store = Mvstore.Store

type msg =
  | Exec of {
      x_wire : int;
      x_round : int;  (* shot number within the attempt *)
      x_ts : Ts.t;
      x_ops : Types.op list;
      x_bytes : int;
    }
  | Exec_reply of {
      e_wire : int;
      e_round : int;  (* echo of x_round *)
      e_ok : bool;
      e_results : Common.rres list;
    }
  | Decide of { d_wire : int; d_commit : bool }

let msg_cost (c : Harness.Cost.t) = function
  | Exec x -> Harness.Cost.server c ~ops:(List.length x.x_ops) ~bytes:x.x_bytes ()
  | Decide _ -> Harness.Cost.server c ()
  | Exec_reply r -> Harness.Cost.server c ~ops:(List.length r.e_results) ()

let msg_phase : msg -> Obs.Phase.t = function
  | Exec _ -> Obs.Phase.Execute
  | Exec_reply _ -> Obs.Phase.Reply
  | Decide { d_commit = true; _ } -> Obs.Phase.Commit
  | Decide _ -> Obs.Phase.Abort

(* --- server --------------------------------------------------------- *)

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
  part : Part.t;
  mutable n_ts_aborts : int;
  mutable n_waits : int;
}

let make_server ctx = { ctx; part = Part.create (); n_ts_aborts = 0; n_waits = 0 }

let reply_pending s pm =
  if pm.pm_waiting = 0 then
    s.ctx.send ~dst:pm.pm_src
      (Exec_reply
         {
           e_wire = pm.pm_wire;
           e_round = pm.pm_round;
           e_ok = not pm.pm_failed;
           e_results = pm.pm_results;
         })

(* A read at ts observes the latest version with t_w <= ts. If that
   version is undecided, the read parks until the fate is known: a
   commit serves the value, an abort re-resolves against the
   then-current chain. *)
let rec exec_read s pm ~ts key =
  let v = Store.version_at s.part.Part.store key ~ts in
  if v.Store.status = Store.Committed || v.Store.writer = pm.pm_wire then begin
    v.Store.tr <- Ts.max v.Store.tr ts;
    pm.pm_results <- Common.result_of_read v key :: pm.pm_results
  end
  else begin
    s.n_waits <- s.n_waits + 1;
    (* reserve the read slot now: the refined t_r blocks any write
       that would slide between this version and the parked read *)
    v.Store.tr <- Ts.max v.Store.tr ts;
    pm.pm_waiting <- pm.pm_waiting + 1;
    Store.park v (fun decided ->
        pm.pm_waiting <- pm.pm_waiting - 1;
        if decided.Store.status = Store.Committed then
          pm.pm_results <- Common.result_of_read decided key :: pm.pm_results
        else exec_read s pm ~ts key;
        reply_pending s pm)
  end

(* A write at ts aborts iff a read at a later timestamp already
   observed the version the write would supersede. *)
let exec_write s (a : Part.attempt) pm ~ts key value =
  let store = s.part.Part.store in
  let v = Store.version_at store key ~ts in
  if Ts.(v.Store.tr > ts) then begin
    s.n_ts_aborts <- s.n_ts_aborts + 1;
    pm.pm_failed <- true
  end
  else begin
    let nv = Store.insert_ordered store key value ~tw:ts ~writer:pm.pm_wire in
    a.Part.versions <- (key, nv) :: a.Part.versions;
    pm.pm_results <- Common.result_of_write nv key :: pm.pm_results
  end

(* A shot its Decide overtook is refused; a duplicate of a shot executed
   here is dropped, as running it again would install duplicate
   versions (the client drops the reply it duplicates). *)
let exec s ~src ~wire ~round ~ts ops =
  match Part.admit s.part ~wire ~client:src ~round with
  | `Decided ->
    s.ctx.send ~dst:src
      (Exec_reply { e_wire = wire; e_round = round; e_ok = false; e_results = [] })
  | `Duplicate -> ()
  | `Serve a ->
    let pm =
      { pm_wire = wire; pm_round = round; pm_src = src; pm_waiting = 0;
        pm_results = []; pm_failed = false }
    in
    List.iter
      (fun op ->
        if not pm.pm_failed then
          match op with
          | Types.Read key -> exec_read s pm ~ts key
          | Types.Write (key, value) -> exec_write s a pm ~ts key value)
      ops;
    reply_pending s pm

let server_handle s ~src msg =
  match msg with
  | Exec { x_wire; x_round; x_ts; x_ops; _ } ->
    exec s ~src ~wire:x_wire ~round:x_round ~ts:x_ts x_ops
  | Decide { d_wire; d_commit } -> Part.decide s.part ~wire:d_wire ~commit:d_commit
  | Exec_reply _ -> ()

(* --- client --------------------------------------------------------- *)

type client = msg Coord.t

let decide_msg wire commit = Decide { d_wire = wire; d_commit = commit }
let make_client cctx ~report = Coord.create cctx ~report ~decide:decide_msg

let exec_msg (a : Coord.attempt) ops =
  Exec
    { x_wire = a.wire; x_round = a.round; x_ts = a.ts; x_ops = ops; x_bytes = a.txn.Txn.bytes }

(* One Exec round per shot. A read-only attempt installs nothing, so it
   contacts no server for the Decide: no commit round, and a cancel
   has nothing to release. *)
let advance (c : client) (a : Coord.attempt) =
  match a.shots with
  | shot :: rest ->
    a.shots <- rest;
    Coord.send_round c a ~contact:(not a.txn.Txn.read_only) exec_msg
      (Cluster.Topology.ops_by_server c.ctx.topo shot)
  | [] -> Coord.commit c a

let submit c txn = advance c (Coord.start c txn)

let client_handle c ~src msg =
  match msg with
  | Exec_reply { e_wire; e_round; e_ok; e_results } ->
    (match Coord.tally c ~src ~wire:e_wire ~round:e_round ~ok:e_ok e_results with
     | Some a when a.Coord.awaiting = 0 ->
       if a.ok then advance c a
       else Coord.abort c a Outcome.Ts_order_violation
     | Some _ | None -> ())
  | Exec _ | Decide _ -> ()

let cancel = Coord.cancel

let protocol : Harness.Protocol.t =
  (module struct
    let name = "MVTO"

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server
    let server_handle = server_handle
    let server_stores s = [ s.part.Part.store ]

    let server_counters s =
      [
        ("ts_aborts", float_of_int s.n_ts_aborts);
        ("read_waits", float_of_int s.n_waits);
      ]

    type nonrec client = client

    let make_client = make_client
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters _ = []

    include Harness.Protocol.No_replicas
  end)
