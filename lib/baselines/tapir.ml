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
  store : Store.t;
  prepared : (int, (Types.key * Store.version) list) Hashtbl.t;
  (* Wires that saw a Decide: a Prepare overtaken by its own abort must
     be refused, or its tentative writes would never be resolved. *)
  decided : (int, unit) Hashtbl.t;
  rounds : (int, int) Hashtbl.t;  (* wire -> highest Prepare round seen *)
  mutable n_fails : int;
}

let make_server ctx =
  { ctx; store = Store.create (); prepared = Hashtbl.create 256;
    decided = Hashtbl.create 256; rounds = Hashtbl.create 256; n_fails = 0 }

(* OCC-TS checks: a read at ts must observe the latest committed
   version and not overtake a pending smaller-timestamp write; a write
   at ts must not invalidate an already-performed read (version read
   at a later timestamp) nor go below the latest committed write. *)
let prepare s ~src ~wire ~round ~ts ~ops ~bytes:_ =
  if Hashtbl.mem s.decided wire then
    s.ctx.send ~dst:src
      (Prepare_reply { p_wire = wire; p_round = round; p_ok = false; p_results = [] })
  else if round <= Option.value ~default:0 (Hashtbl.find_opt s.rounds wire) then
    (* duplicate delivery of a shot already prepared here: preparing it
       again would install duplicate tentative versions. Drop it. *)
    ()
  else begin
  Hashtbl.replace s.rounds wire round;
  let rec run acc installed = function
    | [] -> Ok (List.rev acc, installed)
    | Types.Read key :: rest ->
      (* the version current at ts; if it is another transaction's
         pending write, the order is uncertain: abort-and-retry rather
         than wait (this is where TAPIR pays aborts that MVTO turns
         into short waits) *)
      let v = Store.version_at s.store key ~ts in
      if v.Store.status = Store.Undecided && v.Store.writer <> wire then
        Error installed
      else begin
        v.Store.tr <- Ts.max v.Store.tr ts;
        run (Common.result_of_read v key :: acc) installed rest
      end
    | Types.Write (key, value) :: rest ->
      let v = Store.version_at s.store key ~ts in
      if Ts.(v.Store.tr > ts) then Error installed
      else begin
        let nv = Store.insert_ordered s.store key value ~tw:ts ~writer:wire in
        run (Common.result_of_write nv key :: acc) ((key, nv) :: installed) rest
      end
  in
  match run [] [] ops with
  | Ok (results, installed) ->
    (* accumulate across shots: every tentative version of this wire
       must be resolved by the single Decide *)
    let prev = Option.value ~default:[] (Hashtbl.find_opt s.prepared wire) in
    Hashtbl.replace s.prepared wire (installed @ prev);
    s.ctx.send ~dst:src
      (Prepare_reply { p_wire = wire; p_round = round; p_ok = true; p_results = results })
  | Error installed ->
    s.n_fails <- s.n_fails + 1;
    List.iter (fun (key, v) -> Store.abort_version s.store key v) installed;
    s.ctx.send ~dst:src
      (Prepare_reply { p_wire = wire; p_round = round; p_ok = false; p_results = [] })
  end

let decide s ~wire ~commit =
  Hashtbl.replace s.decided wire ();
  match Hashtbl.find_opt s.prepared wire with
  | None -> ()
  | Some installed ->
    Hashtbl.remove s.prepared wire;
    List.iter
      (fun (key, v) ->
        if commit then Store.commit_in s.store key v else Store.abort_version s.store key v)
      installed

let server_handle s ~src msg =
  match msg with
  | Prepare { p_wire; p_round; p_ts; p_ops; p_bytes } ->
    prepare s ~src ~wire:p_wire ~round:p_round ~ts:p_ts ~ops:p_ops ~bytes:p_bytes
  | Decide { d_wire; d_commit } -> decide s ~wire:d_wire ~commit:d_commit
  | Prepare_reply _ -> ()

(* --- client --------------------------------------------------------- *)

type inflight = {
  f_txn : Txn.t;
  f_wire : int;
  f_ts : Ts.t;
  mutable f_shots : Txn.shot list;
  mutable f_awaiting : int;
  mutable f_round : int;  (* current shot number; stamps Prepare messages *)
  mutable f_replied : Types.node_id list;  (* servers heard this round *)
  mutable f_results : Common.rres list;
  mutable f_ok : bool;
  mutable f_contacted : Types.node_id list;
}

type client = {
  cctx : msg Cluster.Net.ctx;
  report : Outcome.t -> unit;
  inflight : (int, inflight) Hashtbl.t;
  attempts : Common.attempt_counter;
  ts_floor : int ref;
}

let make_client cctx ~report =
  {
    cctx;
    report;
    inflight = Hashtbl.create 64;
    attempts = Hashtbl.create 64;
    ts_floor = ref 0;
  }

let send_shot c f shot =
  let by_server = Cluster.Topology.ops_by_server c.cctx.topo shot in
  f.f_awaiting <- List.length by_server;
  f.f_round <- f.f_round + 1;
  f.f_replied <- [];
  List.iter
    (fun (server, ops) ->
      if not (Types.mem_node server f.f_contacted) then f.f_contacted <- server :: f.f_contacted;
      c.cctx.send ~dst:server
        (Prepare
           {
             p_wire = f.f_wire;
             p_round = f.f_round;
             p_ts = f.f_ts;
             p_ops = ops;
             p_bytes = f.f_txn.Txn.bytes;
           }))
    by_server

let finish c f ~commit ~reason =
  Hashtbl.remove c.inflight f.f_wire;
  List.iter
    (fun server -> c.cctx.send ~dst:server (Decide { d_wire = f.f_wire; d_commit = commit }))
    f.f_contacted;
  let status = if commit then Outcome.Committed else Outcome.Aborted reason in
  c.report
    (Common.outcome ~txn:f.f_txn ~status ~results:(List.rev f.f_results)
       ~commit_ts:(if commit then Some f.f_ts else None))

let advance c f =
  match f.f_shots with
  | shot :: rest ->
    f.f_shots <- rest;
    send_shot c f shot
  | [] -> finish c f ~commit:true ~reason:(Outcome.Other "")

let submit c txn =
  Common.reject_dynamic txn;
  let attempt = Common.next_attempt c.attempts txn.Txn.id in
  let wire = Common.wire_id ~txn_id:txn.Txn.id ~attempt in
  let f =
    {
      f_txn = txn;
      f_wire = wire;
      f_ts = Common.clock_ts c.cctx ~floor:c.ts_floor;
      f_shots = txn.Txn.shots;
      f_awaiting = 0;
      f_round = 0;
      f_replied = [];
      f_results = [];
      f_ok = true;
      f_contacted = [];
    }
  in
  Hashtbl.replace c.inflight wire f;
  advance c f

let client_handle c ~src msg =
  match msg with
  | Prepare_reply { p_wire; p_round; p_ok; p_results } ->
    (match Hashtbl.find_opt c.inflight p_wire with
     | None -> ()
     | Some f when p_round <> f.f_round || Types.mem_node src f.f_replied ->
       () (* stale round, or a duplicate delivery of this round's reply *)
     | Some f ->
       f.f_replied <- src :: f.f_replied;
       if not p_ok then f.f_ok <- false;
       f.f_results <- List.rev_append p_results f.f_results;
       f.f_awaiting <- f.f_awaiting - 1;
       if f.f_awaiting = 0 then
         if f.f_ok then advance c f
         else finish c f ~commit:false ~reason:Outcome.Validation_failed)
  | Prepare _ | Decide _ -> ()

(* Request timeout: abandon the attempt. The abort Decides discard the
   tentative versions every contacted participant installed; late
   Prepares of this wire are refused via the server decided set. *)
let cancel c txn =
  let f =
    Option.bind
      (Common.current_wire c.attempts ~txn_id:txn.Txn.id)
      (Hashtbl.find_opt c.inflight)
  in
  (match f with
   | Some f -> finish c f ~commit:false ~reason:Outcome.Timed_out
   | None -> c.report (Outcome.aborted ~reason:Outcome.Timed_out txn));
  `Cancelled

let protocol : Harness.Protocol.t =
  (module struct
    let name = "TAPIR-CC"

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server
    let server_handle = server_handle
    let server_stores s = [ s.store ]
    let server_counters s = [ ("validation_fails", float_of_int s.n_fails) ]

    type nonrec client = client

    let make_client = make_client
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters _ = []

    include Harness.Protocol.No_replicas
  end)
