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
  store : Store.t;
  installed : (int, (Types.key * Store.version) list) Hashtbl.t;
  decided : (int, bool) Hashtbl.t;
  rounds : (int, int) Hashtbl.t;  (* wire -> highest Exec round processed *)
  mutable n_ts_aborts : int;
  mutable n_waits : int;
}

let make_server ctx =
  {
    ctx;
    store = Store.create ();
    installed = Hashtbl.create 256;
    decided = Hashtbl.create 4096;
    rounds = Hashtbl.create 256;
    n_ts_aborts = 0;
    n_waits = 0;
  }

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
  let v = Store.version_at s.store key ~ts in
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
let exec_write s pm ~ts key value =
  let v = Store.version_at s.store key ~ts in
  if Ts.(v.Store.tr > ts) then begin
    s.n_ts_aborts <- s.n_ts_aborts + 1;
    pm.pm_failed <- true
  end
  else begin
    let nv = Store.insert_ordered s.store key value ~tw:ts ~writer:pm.pm_wire in
    let l = Option.value ~default:[] (Hashtbl.find_opt s.installed pm.pm_wire) in
    Hashtbl.replace s.installed pm.pm_wire ((key, nv) :: l);
    pm.pm_results <- Common.result_of_write nv key :: pm.pm_results
  end

let exec s ~src ~wire ~round ~ts ops =
  if Hashtbl.mem s.decided wire then
    s.ctx.send ~dst:src
      (Exec_reply { e_wire = wire; e_round = round; e_ok = false; e_results = [] })
  else if round <= Option.value ~default:0 (Hashtbl.find_opt s.rounds wire) then
    (* duplicate delivery of a shot already executed here: running it
       again would install duplicate versions. Drop it; the reply it
       duplicates is deduplicated client-side. *)
    ()
  else begin
    Hashtbl.replace s.rounds wire round;
    let pm =
      { pm_wire = wire; pm_round = round; pm_src = src; pm_waiting = 0;
        pm_results = []; pm_failed = false }
    in
    List.iter
      (fun op ->
        if not pm.pm_failed then
          match op with
          | Types.Read key -> exec_read s pm ~ts key
          | Types.Write (key, value) -> exec_write s pm ~ts key value)
      ops;
    reply_pending s pm
  end

let decide s ~wire ~commit =
  if not (Hashtbl.mem s.decided wire) then begin
    Hashtbl.replace s.decided wire commit;
    match Hashtbl.find_opt s.installed wire with
    | None -> ()
    | Some versions ->
      Hashtbl.remove s.installed wire;
      List.iter
        (fun (key, v) ->
          if commit then Store.commit_in s.store key v else Store.abort_version s.store key v)
        versions
  end

let server_handle s ~src msg =
  match msg with
  | Exec { x_wire; x_round; x_ts; x_ops; _ } ->
    exec s ~src ~wire:x_wire ~round:x_round ~ts:x_ts x_ops
  | Decide { d_wire; d_commit } -> decide s ~wire:d_wire ~commit:d_commit
  | Exec_reply _ -> ()

(* --- client --------------------------------------------------------- *)

type inflight = {
  f_txn : Txn.t;
  f_wire : int;
  f_ts : Ts.t;
  mutable f_shots : Txn.shot list;
  mutable f_awaiting : int;
  mutable f_round : int;  (* current shot number; stamps Exec messages *)
  mutable f_replied : Types.node_id list;  (* servers heard this round *)
  mutable f_results : Common.rres list;
  mutable f_ok : bool;
  mutable f_contacted : Types.node_id list;
}

type client = {
  cctx : msg Cluster.Net.ctx;
  report : Outcome.t -> unit;
  inflight : inflight Intmap.t;
  attempts : Common.attempt_counter;
  ts_floor : int ref;
}

let make_client cctx ~report =
  {
    cctx;
    report;
    inflight = Intmap.create ();
    attempts = Intmap.create ();
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
        (Exec
           {
             x_wire = f.f_wire;
             x_round = f.f_round;
             x_ts = f.f_ts;
             x_ops = ops;
             x_bytes = f.f_txn.Txn.bytes;
           }))
    by_server

let finish c f ~commit ~reason =
  Intmap.remove c.inflight f.f_wire;
  if commit then Common.drop_attempt c.attempts f.f_txn.Txn.id;
  (* read-only transactions have nothing to decide: no commit round *)
  if not f.f_txn.Txn.read_only then
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
  Intmap.replace c.inflight wire f;
  advance c f

let client_handle c ~src msg =
  match msg with
  | Exec_reply { e_wire; e_round; e_ok; e_results } ->
    (match Intmap.find_opt c.inflight e_wire with
     | None -> ()
     | Some f when e_round <> f.f_round || Types.mem_node src f.f_replied ->
       () (* stale round, or a duplicate delivery of this round's reply *)
     | Some f ->
       f.f_replied <- src :: f.f_replied;
       if not e_ok then f.f_ok <- false;
       f.f_results <- List.rev_append e_results f.f_results;
       f.f_awaiting <- f.f_awaiting - 1;
       if f.f_awaiting = 0 then
         if f.f_ok then advance c f
         else finish c f ~commit:false ~reason:Outcome.Ts_order_violation)
  | Exec _ | Decide _ -> ()

(* Request timeout: abandon the attempt. The abort Decides discard any
   versions the attempt installed; servers refuse late shots via their
   decided set. Read-only attempts hold nothing, so there is nothing
   to release. *)
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

let protocol : Harness.Protocol.t =
  (module struct
    let name = "MVTO"

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server
    let server_handle = server_handle
    let server_stores s = [ s.store ]

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
