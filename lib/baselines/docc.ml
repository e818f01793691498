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

(* A wire's record here exists once its Prepare succeeded. *)
type server = {
  ctx : msg Cluster.Net.ctx;
  part : Part.t;
  mutable n_validation_fails : int;
}

let make_server ctx = { ctx; part = Part.create (); n_validation_fails = 0 }

let exec_reads s ~src ~wire ~round keys =
  let store = s.part.Part.store in
  let results =
    List.map (fun key -> Common.result_of_read (Store.most_recent_committed store key) key) keys
  in
  s.ctx.send ~dst:src (Exec_reply { e_wire = wire; e_round = round; e_results = results })

let prepare_reply s ~src ~wire ~ok versions =
  s.ctx.send ~dst:src
    (Prepare_reply
       {
         p_wire = wire;
         p_ok = ok;
         p_writes = List.map (fun (key, v) -> Common.result_of_write v key) versions;
       })

(* Prepare: each read must still see the latest committed version and
   takes a shared validation lock until commit (without it, two
   prepares crossing on different servers can each validate a read the
   other is about to overwrite — the classic distributed-OCC race);
   each write takes an exclusive lock and installs an undecided
   version. Both lock kinds are no-wait: any conflict fails the
   prepare, which is the contention-window abort the paper highlights
   (Fig 2a). A Prepare its own Decide overtook is refused; a duplicate
   of one that succeeded here gets the same reply again, as
   re-validating would deadlock against its own locks. *)
let prepare s ~src ~wire ~ts ~reads ~writes =
  let p = s.part in
  if Part.is_decided p wire then prepare_reply s ~src ~wire ~ok:false []
  else
    match Part.find p wire with
    | Some a -> prepare_reply s ~src ~wire ~ok:true a.Part.versions
    | None ->
      let owner = { Locks.txn = wire; ts } in
      let rec lock_all acquired = function
        | [] -> Ok acquired
        | (key, mode) :: rest ->
          (match Locks.try_acquire p.Part.locks key ~owner ~mode with
           | `Granted -> lock_all (key :: acquired) rest
           | `Conflict _ -> Error acquired)
      in
      let wanted =
        List.map (fun (key, _) -> (key, Locks.Shared)) reads
        @ List.map (fun (key, _) -> (key, Locks.Exclusive)) writes
      in
      let valid =
        List.for_all
          (fun (key, vid) -> (Store.most_recent_committed p.Part.store key).Store.vid = vid)
          reads
      in
      (match if valid then lock_all [] wanted else Error [] with
       | Error acquired ->
         List.iter (fun key -> Locks.release p.Part.locks key ~txn:wire) acquired;
         s.n_validation_fails <- s.n_validation_fails + 1;
         prepare_reply s ~src ~wire ~ok:false []
       | Ok keys ->
         (* buffered writes become undecided versions, invisible to
            committed reads until the Decide *)
         let a = Part.get p ~wire ~client:src in
         a.Part.keys <- keys;
         a.Part.versions <-
           List.map
             (fun (key, value) -> (key, Store.write p.Part.store key value ~ts ~writer:wire))
             writes;
         prepare_reply s ~src ~wire ~ok:true a.Part.versions)

let server_handle s ~src msg =
  match msg with
  | Exec { x_wire; x_round; x_keys; _ } ->
    exec_reads s ~src ~wire:x_wire ~round:x_round x_keys
  | Prepare { p_wire; p_ts; p_reads; p_writes; _ } ->
    prepare s ~src ~wire:p_wire ~ts:p_ts ~reads:p_reads ~writes:p_writes
  | Decide { d_wire; d_commit } -> Part.decide s.part ~wire:d_wire ~commit:d_commit
  | Exec_reply _ | Prepare_reply _ -> ()

(* --- client --------------------------------------------------------- *)

type client = msg Coord.t

let decide_msg wire commit = Decide { d_wire = wire; d_commit = commit }
let make_client cctx ~report = Coord.create cctx ~report ~decide:decide_msg

let exec_msg (a : Coord.attempt) ops =
  Exec
    {
      x_wire = a.wire;
      x_round = a.round;
      x_keys = List.map Types.op_key ops;
      x_bytes = a.txn.Txn.bytes;
    }

(* Every version observed during execution must validate: if two shots
   saw different versions of a key (non-repeatable read), one of them
   cannot be current and the prepare must fail. The keys read here are
   a set, so building the message is linear in the transaction's size. *)
let prepare_msg (a : Coord.attempt) ops =
  let read_here = Inttbl.create ~empty:0 in
  List.iter (function Types.Read k -> Inttbl.replace read_here k 1 | Types.Write _ -> ()) ops;
  let reads =
    List.filter_map
      (fun (r : Common.rres) ->
        if (not r.b_is_write) && Inttbl.mem read_here r.b_key then Some (r.b_key, r.b_vid)
        else None)
      a.results
    |> List.sort_uniq (fun (k1, v1) (k2, v2) ->
           match Int.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c)
  in
  let writes =
    List.filter_map (function Types.Write (k, v) -> Some (k, v) | Types.Read _ -> None) ops
  in
  Prepare
    { p_wire = a.wire; p_ts = a.ts; p_reads = reads; p_writes = writes; p_bytes = a.txn.Txn.bytes }

(* One execute round for the reads of each shot (write-only shots skip
   straight through), then the prepare round. Only the prepare
   participants hold state, so only they hear the Decide, in
   participant order. The prepare opens a new round, so a late
   Exec_reply no longer counts. *)
let rec advance (c : client) (a : Coord.attempt) =
  match a.shots with
  | shot :: rest ->
    a.shots <- rest;
    (match
       Cluster.Topology.ops_by_server c.ctx.topo
         (List.filter (fun op -> not (Types.is_write op)) shot)
     with
     | [] -> advance c a
     | groups -> Coord.send_round c a ~contact:false exec_msg groups)
  | [] ->
    a.final <- true;
    let groups = Cluster.Topology.ops_by_server c.ctx.topo (Txn.ops a.txn) in
    a.decide_to <- List.map fst groups;
    Coord.send_round c a ~contact:false prepare_msg groups

let submit c txn = advance c (Coord.start c txn)

let client_handle c ~src msg =
  match msg with
  | Exec_reply { e_wire; e_round; e_results } ->
    (match Coord.tally c ~src ~wire:e_wire ~round:e_round ~ok:true e_results with
     | Some a when a.Coord.awaiting = 0 -> advance c a
     | Some _ | None -> ())
  | Prepare_reply { p_wire; p_ok; p_writes } ->
    (match Coord.tally c ~src ~wire:p_wire ~round:Coord.unstamped ~ok:p_ok p_writes with
     | Some a when a.Coord.awaiting = 0 ->
       if a.ok then Coord.commit c a
       else Coord.abort c a Outcome.Validation_failed
     | Some _ | None -> ())
  | Exec _ | Prepare _ | Decide _ -> ()

let cancel = Coord.cancel

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
    let server_stores s = [ s.part.Part.store ]
    let server_counters s = [ ("validation_fails", float_of_int s.n_validation_fails) ]

    type nonrec client = client

    let make_client = make_client
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters _ = []

    include Harness.Protocol.No_replicas
  end)
