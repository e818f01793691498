(* Distributed optimistic concurrency control (dOCC), the classic
   three-phase strictly serializable baseline (§2.3):

     execute  - reads fetch the latest committed versions, writes are
                buffered at the coordinator (one round per shot);
     prepare  - participants validate that every read version is still
                current and acquire exclusive locks on written keys
                (buffered writes are installed as undecided versions);
     commit   - asynchronous: versions flip to committed / are dropped,
                locks release.

   The window between prepare and commit is the contention window the
   paper blames for dOCC's false aborts: validations of concurrent
   transactions fail while locks are held. Latency is 2 RTT with
   asynchronous commit. *)

open Kernel
module Store = Mvstore.Store
module Locks = Mvstore.Locks

type msg =
  | Exec of { x_wire : int; x_round : int; x_keys : Types.key list; x_bytes : int }
  | Exec_reply of { e_wire : int; e_round : int; e_results : Common.rres list }
  | Prepare of {
      p_wire : int;
      p_ts : Ts.t;
      p_reads : (Types.key * int) list;  (* key, vid read *)
      p_writes : (Types.key * Types.value) list;
      p_bytes : int;
    }
  | Prepare_reply of { p_wire : int; p_ok : bool; p_writes : Common.rres list }
  | Decide of { d_wire : int; d_commit : bool }

let msg_cost (c : Harness.Cost.t) = function
  | Exec x -> Harness.Cost.server c ~ops:(List.length x.x_keys) ~bytes:x.x_bytes ()
  | Prepare p ->
    Harness.Cost.server c
      ~ops:(List.length p.p_reads + List.length p.p_writes)
      ~bytes:p.p_bytes ()
  | Decide _ -> Harness.Cost.server c ()
  | Exec_reply r -> Harness.Cost.server c ~ops:(List.length r.e_results) ()
  | Prepare_reply _ -> Harness.Cost.server c ()

let msg_phase : msg -> Obs.Phase.t = function
  | Exec _ -> Obs.Phase.Execute
  | Exec_reply _ | Prepare_reply _ -> Obs.Phase.Reply
  | Prepare _ -> Obs.Phase.Validate
  | Decide { d_commit = true; _ } -> Obs.Phase.Commit
  | Decide _ -> Obs.Phase.Abort

(* --- server --------------------------------------------------------- *)

type prepared = {
  pr_versions : (Types.key * Store.version) list;
  pr_keys : Types.key list;  (* all keys locked here (reads + writes) *)
  pr_owner : Locks.owner;
}

type server = {
  ctx : msg Cluster.Net.ctx;
  store : Store.t;
  locks : Locks.t;
  prepared : (int, prepared) Hashtbl.t;
  (* Wires that already saw a Decide. A Prepare arriving after its own
     abort (the coordinator timed out and its Decide overtook the
     Prepare) must not install locks/versions nobody will release. *)
  decided : (int, unit) Hashtbl.t;
  mutable n_validation_fails : int;
}

let make_server ctx =
  { ctx; store = Store.create (); locks = Locks.create ();
    prepared = Hashtbl.create 256; decided = Hashtbl.create 256;
    n_validation_fails = 0 }

let exec_reads s ~src ~wire ~round keys =
  let results =
    List.map (fun key -> Common.result_of_read (Store.most_recent_committed s.store key) key) keys
  in
  s.ctx.send ~dst:src (Exec_reply { e_wire = wire; e_round = round; e_results = results })

(* Prepare: each read must still see the latest committed version and
   takes a shared validation lock until commit (without it, two
   prepares crossing on different servers can each validate a read the
   other is about to overwrite — the classic distributed-OCC race);
   each write takes an exclusive lock and installs an undecided
   version. Both lock kinds are no-wait: any conflict fails the
   prepare, which is the contention-window abort the paper highlights
   (Fig 2a). *)
let prepare s ~src ~wire ~ts ~reads ~writes =
  if Hashtbl.mem s.decided wire then
    (* the attempt was already decided (timed-out coordinator's abort
       overtook this Prepare): refuse without installing anything *)
    s.ctx.send ~dst:src (Prepare_reply { p_wire = wire; p_ok = false; p_writes = [] })
  else if Hashtbl.mem s.prepared wire then
    (* duplicate delivery of a Prepare that already succeeded here;
       re-validating would deadlock against our own locks *)
    s.ctx.send ~dst:src
      (Prepare_reply
         {
           p_wire = wire;
           p_ok = true;
           p_writes =
             List.map
               (fun (key, v) -> Common.result_of_write v key)
               (Hashtbl.find s.prepared wire).pr_versions;
         })
  else
  let owner = { Locks.txn = wire; ts } in
  let rec lock_all acquired = function
    | [] -> Ok acquired
    | (key, mode) :: rest ->
      (match Locks.try_acquire s.locks key ~owner ~mode with
       | `Granted -> lock_all (key :: acquired) rest
       | `Conflict _ -> Error acquired)
  in
  let wanted =
    List.map (fun (key, _) -> (key, Locks.Shared)) reads
    @ List.map (fun (key, _) -> (key, Locks.Exclusive)) writes
  in
  let valid =
    List.for_all
      (fun (key, vid) -> (Store.most_recent_committed s.store key).Store.vid = vid)
      reads
  in
  let ok, keys, versions =
    if not valid then (false, [], [])
    else
      match lock_all [] wanted with
      | Error acquired ->
        List.iter (fun key -> Locks.release s.locks key ~txn:wire) acquired;
        (false, [], [])
      | Ok keys ->
        (* install buffered writes as undecided versions (invisible to
           committed reads until the commit message) *)
        let versions =
          List.map
            (fun (key, value) -> (key, Store.write s.store key value ~ts ~writer:wire))
            writes
        in
        (true, keys, versions)
  in
  if not ok then s.n_validation_fails <- s.n_validation_fails + 1
  else
    Hashtbl.replace s.prepared wire
      { pr_versions = versions; pr_keys = keys; pr_owner = owner };
  s.ctx.send ~dst:src
    (Prepare_reply
       {
         p_wire = wire;
         p_ok = ok;
         p_writes = List.map (fun (key, v) -> Common.result_of_write v key) versions;
       })

let decide s ~wire ~commit =
  Hashtbl.replace s.decided wire ();
  match Hashtbl.find_opt s.prepared wire with
  | None -> ()
  | Some p ->
    Hashtbl.remove s.prepared wire;
    List.iter
      (fun (key, v) ->
        if commit then Store.commit_in s.store key v else Store.abort_version s.store key v)
      p.pr_versions;
    List.iter (fun key -> Locks.release s.locks key ~txn:wire) p.pr_keys

let server_handle s ~src msg =
  match msg with
  | Exec { x_wire; x_round; x_keys; _ } ->
    exec_reads s ~src ~wire:x_wire ~round:x_round x_keys
  | Prepare { p_wire; p_ts; p_reads; p_writes; _ } ->
    prepare s ~src ~wire:p_wire ~ts:p_ts ~reads:p_reads ~writes:p_writes
  | Decide { d_wire; d_commit } -> decide s ~wire:d_wire ~commit:d_commit
  | Exec_reply _ | Prepare_reply _ -> ()

(* --- client --------------------------------------------------------- *)

type phase = Executing | Preparing

type inflight = {
  f_txn : Txn.t;
  f_wire : int;
  f_ts : Ts.t;
  mutable f_phase : phase;
  mutable f_shots : Txn.shot list;
  mutable f_awaiting : int;
  mutable f_round : int;  (* current execute round; stamps Exec messages *)
  mutable f_replied : Types.node_id list;  (* servers heard this round/phase *)
  mutable f_results : Common.rres list;
  mutable f_prepare_ok : bool;
  f_participants : Types.node_id list;
  mutable f_prepared : Types.node_id list;  (* participants sent Prepare *)
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

let read_keys_of_shot shot =
  List.filter_map (function Types.Read k -> Some k | Types.Write _ -> None) shot

(* Send one execute round for the reads of [shot]; write-only shots
   skip straight through. *)
let rec send_exec c f shot =
  let reads = read_keys_of_shot shot in
  let by_server = Cluster.Topology.ops_by_server c.cctx.topo (List.map (fun k -> Types.Read k) reads) in
  match by_server with
  | [] -> advance c f
  | parts ->
    f.f_awaiting <- List.length parts;
    f.f_round <- f.f_round + 1;
    f.f_replied <- [];
    List.iter
      (fun (server, ops) ->
        c.cctx.send ~dst:server
          (Exec
             {
               x_wire = f.f_wire;
               x_round = f.f_round;
               x_keys = List.map Types.op_key ops;
               x_bytes = f.f_txn.Txn.bytes;
             }))
      parts

and advance c f =
  match f.f_shots with
  | shot :: rest ->
    f.f_shots <- rest;
    send_exec c f shot
  | [] -> start_prepare c f

and start_prepare c f =
  f.f_phase <- Preparing;
  let ops = Txn.ops f.f_txn in
  let by_server = Cluster.Topology.ops_by_server c.cctx.topo ops in
  f.f_awaiting <- List.length by_server;
  f.f_replied <- [];
  f.f_prepared <- List.map fst by_server;
  List.iter
    (fun (server, ops) ->
      (* every version observed during execution must validate: if two
         shots saw different versions of a key (non-repeatable read),
         one of them cannot be current and the prepare must fail *)
      let keys_here =
        List.filter_map
          (function Types.Read k -> Some k | Types.Write _ -> None)
          ops
      in
      let reads =
        List.filter_map
          (fun r ->
            if (not r.Common.b_is_write) && Types.mem_key r.Common.b_key keys_here then
              Some (r.Common.b_key, r.Common.b_vid)
            else None)
          f.f_results
        |> List.sort_uniq (fun (k1, v1) (k2, v2) ->
               match Int.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c)
      in
      let writes =
        List.filter_map
          (function Types.Write (k, v) -> Some (k, v) | Types.Read _ -> None)
          ops
      in
      c.cctx.send ~dst:server
        (Prepare
           {
             p_wire = f.f_wire;
             p_ts = f.f_ts;
             p_reads = reads;
             p_writes = writes;
             p_bytes = f.f_txn.Txn.bytes;
           }))
    by_server

let submit c txn =
  Common.reject_dynamic txn;
  let attempt = Common.next_attempt c.attempts txn.Txn.id in
  let wire = Common.wire_id ~txn_id:txn.Txn.id ~attempt in
  let participants =
    List.map fst (Cluster.Topology.ops_by_server c.cctx.topo (Txn.ops txn))
  in
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
      f_prepare_ok = true;
      f_participants = participants;
      f_prepared = [];
    }
  in
  Intmap.replace c.inflight wire f;
  advance c f

let finish c f ~commit ~reason =
  Intmap.remove c.inflight f.f_wire;
  if commit then Common.drop_attempt c.attempts f.f_txn.Txn.id;
  List.iter
    (fun server -> c.cctx.send ~dst:server (Decide { d_wire = f.f_wire; d_commit = commit }))
    f.f_prepared;
  let status = if commit then Outcome.Committed else Outcome.Aborted reason in
  c.report
    (Common.outcome ~txn:f.f_txn ~status ~results:(List.rev f.f_results)
       ~commit_ts:(if commit then Some f.f_ts else None))

let client_handle c ~src msg =
  match msg with
  | Exec_reply { e_wire; e_round; e_results } ->
    (match Intmap.find_opt c.inflight e_wire with
     | Some f
       when f.f_phase = Executing && e_round = f.f_round
            && not (Types.mem_node src f.f_replied) ->
       f.f_replied <- src :: f.f_replied;
       f.f_results <- List.rev_append e_results f.f_results;
       f.f_awaiting <- f.f_awaiting - 1;
       if f.f_awaiting = 0 then advance c f
     | Some _ | None -> ())
  | Prepare_reply { p_wire; p_ok; p_writes } ->
    (match Intmap.find_opt c.inflight p_wire with
     | Some f when f.f_phase = Preparing && not (Types.mem_node src f.f_replied) ->
       f.f_replied <- src :: f.f_replied;
       if not p_ok then f.f_prepare_ok <- false;
       f.f_results <- List.rev_append p_writes f.f_results;
       f.f_awaiting <- f.f_awaiting - 1;
       if f.f_awaiting = 0 then
         if f.f_prepare_ok then finish c f ~commit:true ~reason:(Outcome.Other "")
         else finish c f ~commit:false ~reason:Outcome.Validation_failed
     | Some _ | None -> ())
  | Exec _ | Prepare _ | Decide _ -> ()

(* Request timeout: abandon the attempt. [finish ~commit:false] sends
   abort Decides to every server that was sent a Prepare, releasing
   locks and undecided versions; servers whose Prepare is still in
   flight refuse it on arrival via their decided set. *)
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

(* --- protocol value -------------------------------------------------- *)

let protocol : Harness.Protocol.t =
  (module struct
    let name = "dOCC"

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server
    let server_handle = server_handle
    let server_stores s = [ s.store ]
    let server_counters s = [ ("validation_fails", float_of_int s.n_validation_fails) ]

    type nonrec client = client

    let make_client = make_client
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters _ = []

    include Harness.Protocol.No_replicas
  end)
