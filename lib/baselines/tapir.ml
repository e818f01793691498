(* TAPIR-CC: the concurrency-control layer of TAPIR (Zhang et al.,
   SOSP '15) with replication disabled, as the paper compares against
   (§5). Timestamp-based OCC with the execute and prepare phases
   combined (the paper's optimization for one-shot baselines): a single
   round carries reads and buffered writes together with the client's
   loosely synchronized timestamp; each participant validates against
   its local version state and tentatively installs writes. Commit is
   asynchronous. Serializable (1 RTT best case) but not strictly
   serializable: nothing orders non-conflicting transactions by real
   time. *)

open Kernel
module Store = Mvstore.Store

type msg =
  | Prepare of {
      p_wire : int;
      p_round : int;  (* shot number within the attempt *)
      p_ts : Ts.t;
      p_ops : Types.op list;
      p_bytes : int;
    }
  | Prepare_reply of {
      p_wire : int;
      p_round : int;  (* echo *)
      p_ok : bool;
      p_results : Common.rres list;
    }
  | Decide of { d_wire : int; d_commit : bool }

let msg_cost (c : Harness.Cost.t) = function
  | Prepare p -> Harness.Cost.server c ~ops:(List.length p.p_ops) ~bytes:p.p_bytes ()
  | Decide _ -> Harness.Cost.server c ()
  | Prepare_reply r -> Harness.Cost.server c ~ops:(List.length r.p_results) ()

let msg_phase : msg -> Obs.Phase.t = function
  | Prepare _ -> Obs.Phase.Validate
  | Prepare_reply _ -> Obs.Phase.Reply
  | Decide { d_commit = true; _ } -> Obs.Phase.Commit
  | Decide _ -> Obs.Phase.Abort

(* --- server --------------------------------------------------------- *)

type server = {
  ctx : msg Cluster.Net.ctx;
  part : Part.t;
  mutable n_fails : int;
}

let make_server ctx = { ctx; part = Part.create (); n_fails = 0 }

let refuse s ~src ~wire ~round =
  s.ctx.send ~dst:src
    (Prepare_reply { p_wire = wire; p_round = round; p_ok = false; p_results = [] })

(* OCC-TS checks: a read at ts must observe the latest committed
   version and not overtake a pending smaller-timestamp write; a write
   at ts must not invalidate an already-performed read (version read
   at a later timestamp) nor go below the latest committed write. *)
let validate s (a : Part.attempt) ~src ~wire ~round ~ts ops =
  let store = s.part.Part.store in
  let rec run acc installed = function
    | [] -> Ok (List.rev acc, installed)
    | Types.Read key :: rest ->
      (* the version current at ts; if it is another transaction's
         pending write, the order is uncertain: abort-and-retry rather
         than wait (this is where TAPIR pays aborts that MVTO turns
         into short waits) *)
      let v = Store.version_at store key ~ts in
      if v.Store.status = Store.Undecided && v.Store.writer <> wire then
        Error installed
      else begin
        v.Store.tr <- Ts.max v.Store.tr ts;
        run (Common.result_of_read v key :: acc) installed rest
      end
    | Types.Write (key, value) :: rest ->
      let v = Store.version_at store key ~ts in
      if Ts.(v.Store.tr > ts) then Error installed
      else begin
        let nv = Store.insert_ordered store key value ~tw:ts ~writer:wire in
        run (Common.result_of_write nv key :: acc) ((key, nv) :: installed) rest
      end
  in
  match run [] [] ops with
  | Ok (results, installed) ->
    (* accumulate across shots: every tentative version of this wire
       must be resolved by the single Decide *)
    a.Part.versions <- installed @ a.Part.versions;
    s.ctx.send ~dst:src
      (Prepare_reply { p_wire = wire; p_round = round; p_ok = true; p_results = results })
  | Error installed ->
    s.n_fails <- s.n_fails + 1;
    List.iter (fun (key, v) -> Store.abort_version store key v) installed;
    refuse s ~src ~wire ~round

(* A Prepare its own Decide overtook is refused, or its tentative writes
   would never be resolved; a duplicate of a shot prepared here is
   dropped, as preparing it again would install duplicate versions. *)
let prepare s ~src ~wire ~round ~ts ops =
  match Part.admit s.part ~wire ~client:src ~round with
  | `Decided -> refuse s ~src ~wire ~round
  | `Duplicate -> ()
  | `Serve a -> validate s a ~src ~wire ~round ~ts ops

let server_handle s ~src msg =
  match msg with
  | Prepare { p_wire; p_round; p_ts; p_ops; _ } ->
    prepare s ~src ~wire:p_wire ~round:p_round ~ts:p_ts p_ops
  | Decide { d_wire; d_commit } -> Part.decide s.part ~wire:d_wire ~commit:d_commit
  | Prepare_reply _ -> ()

(* --- client --------------------------------------------------------- *)

type client = msg Coord.t

let decide_msg wire commit = Decide { d_wire = wire; d_commit = commit }
let make_client cctx ~report = Coord.create cctx ~report ~decide:decide_msg

let prepare_msg (a : Coord.attempt) ops =
  Prepare
    { p_wire = a.wire; p_round = a.round; p_ts = a.ts; p_ops = ops; p_bytes = a.txn.Txn.bytes }

(* One Prepare round per shot; every contacted participant hears the
   Decide. *)
let advance (c : client) (a : Coord.attempt) =
  match a.shots with
  | shot :: rest ->
    a.shots <- rest;
    Coord.send_round c a ~contact:true prepare_msg
      (Cluster.Topology.ops_by_server c.ctx.topo shot)
  | [] -> Coord.commit c a

let submit c txn = advance c (Coord.start c txn)

let client_handle c ~src msg =
  match msg with
  | Prepare_reply { p_wire; p_round; p_ok; p_results } ->
    (match Coord.tally c ~src ~wire:p_wire ~round:p_round ~ok:p_ok p_results with
     | Some a when a.Coord.awaiting = 0 ->
       if a.ok then advance c a
       else Coord.abort c a Outcome.Validation_failed
     | Some _ | None -> ())
  | Prepare _ | Decide _ -> ()

let cancel = Coord.cancel

let protocol : Harness.Protocol.t =
  (module struct
    let name = "TAPIR-CC"

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server
    let server_handle = server_handle
    let server_stores s = [ s.part.Part.store ]
    let server_counters s = [ ("validation_fails", float_of_int s.n_fails) ]

    type nonrec client = client

    let make_client = make_client
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters _ = []

    include Harness.Protocol.No_replicas
  end)
