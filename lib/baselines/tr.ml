(* Transaction reordering (TR) in the style of Janus-CC (Mu et al.,
   OSDI '16), the paper's third strictly serializable baseline (§2.3,
   §5). Two rounds:

     pre-accept - participants record the transaction's footprint and
                  reply with its dependencies: the conflicting
                  transactions they have already seen;
     commit     - the coordinator broadcasts the union of the reported
                  dependencies; each participant executes the
                  transaction once its dependencies have executed
                  locally, breaking mutual-dependency cycles
                  deterministically (smaller wire id first).

   Execution happens at commit time, so results (and hence the reply to
   the user) arrive after 2 RTT. TR never aborts; its costs are the
   second round, the dependency metadata (linear in the number of
   concurrent conflicting transactions), and the blocking while
   dependencies drain — exactly the overheads the paper contrasts with
   NCC's one-round non-blocking execution. *)

open Kernel
module Store = Mvstore.Store

type msg =
  | Preaccept of {
      pa_wire : int;
      pa_round : int;  (* shot number within the attempt *)
      pa_ops : Types.op list;
      pa_bytes : int;
    }
  | Preaccept_reply of { pa_wire : int; pa_round : int; pa_deps : int list }
  | Commit of { c_wire : int; c_deps : int list }
  | Commit_reply of { c_wire : int; c_results : Common.rres list }
  | Abort of { ab_wire : int }  (* pre-commit cancellation (request timeout) *)

(* Janus's dependency graph is maintained on every request, which the
   paper identifies as the reason TR "is more costly under low
   contention" (§5.3): a constant bookkeeping charge per protocol
   message on top of the variable per-dependency cost. *)
let graph_overhead = 20e-6

let msg_cost (cm : Harness.Cost.t) = function
  | Preaccept p ->
    graph_overhead
    +. Harness.Cost.server cm ~ops:(List.length p.pa_ops) ~bytes:p.pa_bytes ()
  | Commit c -> graph_overhead +. Harness.Cost.server cm ~deps:(List.length c.c_deps) ()
  | Preaccept_reply r -> Harness.Cost.server cm ~deps:(List.length r.pa_deps) ()
  | Commit_reply r -> Harness.Cost.server cm ~ops:(List.length r.c_results) ()
  | Abort _ -> Harness.Cost.server cm ()

let msg_phase : msg -> Obs.Phase.t = function
  | Preaccept _ -> Obs.Phase.Execute
  | Preaccept_reply _ | Commit_reply _ -> Obs.Phase.Reply
  | Commit _ -> Obs.Phase.Commit
  | Abort _ -> Obs.Phase.Abort

(* --- server --------------------------------------------------------- *)

type tstate = {
  t_wire : int;
  t_client : Types.node_id;
  mutable t_round : int;          (* highest pre-accept round folded in *)
  mutable t_reply_deps : int list;(* reply of the latest round, for re-sends *)
  mutable t_ops : Types.op list;  (* accumulated over pre-accept rounds *)
  mutable t_deps : int list;      (* set by the commit message *)
  mutable t_committed : bool;     (* commit message received *)
  mutable t_executed : bool;
}

type server = {
  ctx : msg Cluster.Net.ctx;
  store : Store.t;
  txns : (int, tstate) Hashtbl.t;
  by_key : (Types.key, int list ref) Hashtbl.t;  (* recent conflicting txns *)
  aborted : (int, unit) Hashtbl.t;  (* cancelled wires: tombstoned *)
  (* results of executed transactions, kept so a retransmitted Commit
     (reply lost in the network) can be answered after the sweep *)
  done_results : (int, Common.rres list) Hashtbl.t;
  mutable n_dep_entries : int;
  mutable n_blocked_execs : int;
  mutable n_execs : int;  (* drives the periodic sweep of executed txns *)
}

let make_server ctx =
  {
    ctx;
    store = Store.create ();
    txns = Hashtbl.create 256;
    by_key = Hashtbl.create 1024;
    aborted = Hashtbl.create 64;
    done_results = Hashtbl.create 4096;
    n_dep_entries = 0;
    n_blocked_execs = 0;
    n_execs = 0;
  }

(* Executed transactions can be forgotten: a dependency resolving to
   "unknown" imposes no ordering obligation, which coincides with the
   semantics of an executed dependency. Swept periodically. *)
let sweep s =
  let stale =
    Detmap.fold_sorted
      (fun wire st acc -> if st.t_executed then wire :: acc else acc)
      s.txns []
  in
  List.iter (fun wire -> Hashtbl.remove s.txns wire) stale

let key_list s key =
  match Hashtbl.find_opt s.by_key key with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add s.by_key key l;
    l

(* Record the footprint and report local dependencies: conflicting
   transactions seen before this one (executed ones that are still
   recent count too - ordering after them is already guaranteed by
   their execution, so they are filtered below). *)
let preaccept s ~src ~wire ~round ops =
  if Hashtbl.mem s.aborted wire then
    (* cancelled attempt: refuse the footprint; an empty dependency set
       imposes no ordering and the client has already moved on *)
    s.ctx.send ~dst:src (Preaccept_reply { pa_wire = wire; pa_round = round; pa_deps = [] })
  else begin
  let st =
    match Hashtbl.find_opt s.txns wire with
    | Some st -> st
    | None ->
      let st =
        { t_wire = wire; t_client = src; t_round = 0; t_reply_deps = [];
          t_ops = []; t_deps = []; t_committed = false; t_executed = false }
      in
      Hashtbl.add s.txns wire st;
      st
  in
  if round <= st.t_round then
    (* duplicate delivery: folding the ops in again would double the
       footprint. Re-send the reply of that round (the client drops it
       if it already heard us). *)
    s.ctx.send ~dst:src
      (Preaccept_reply { pa_wire = wire; pa_round = round; pa_deps = st.t_reply_deps })
  else begin
  st.t_round <- round;
  st.t_ops <- st.t_ops @ ops;
  let deps = ref [] in
  List.iter
    (fun op ->
      let key = Types.op_key op in
      let l = key_list s key in
      List.iter
        (fun other ->
          if other <> wire && not (List.mem other !deps) then
            match Hashtbl.find_opt s.txns other with
            | Some ost when not ost.t_executed ->
              let other_writes =
                List.exists
                  (fun o -> Types.key_eq (Types.op_key o) key && Types.is_write o)
                  ost.t_ops
              in
              let conflicts =
                other_writes || Types.is_write op
              in
              if conflicts then deps := other :: !deps
            | Some _ | None -> ())
        !l;
      (* register ourselves, pruning executed entries *)
      l :=
        wire
        :: List.filter
             (fun w ->
               w <> wire
               &&
               match Hashtbl.find_opt s.txns w with
               | Some ost -> not ost.t_executed
               | None -> false)
             !l)
    ops;
  s.n_dep_entries <- s.n_dep_entries + List.length !deps;
  st.t_reply_deps <- !deps;
  s.ctx.send ~dst:src (Preaccept_reply { pa_wire = wire; pa_round = round; pa_deps = !deps })
  end
  end

(* Does [target] appear on a committed-dependency path out of [from]?
   Used to detect dependency cycles (Janus executes the members of a
   strongly connected component in deterministic id order). Only
   locally known, committed transactions are traversed. *)
let reaches s ~from ~target =
  let seen = Hashtbl.create 16 in
  let rec go wire =
    wire = target
    || (not (Hashtbl.mem seen wire))
       &&
       (Hashtbl.add seen wire ();
        match Hashtbl.find_opt s.txns wire with
        | Some st when st.t_committed && not st.t_executed ->
          List.exists go st.t_deps
        | Some _ | None -> false)
  in
  go from

(* A committed transaction may execute when every locally known
   dependency has executed. A committed-but-unexecuted dependency
   blocks unless it is part of a dependency cycle through us, in which
   case the cycle members execute in wire-id order (deterministic, so
   every server that orders the pair orders it the same way). *)
let rec try_execute s st =
  if st.t_committed && not st.t_executed then begin
    let blocking dep =
      match Hashtbl.find_opt s.txns dep with
      | None -> false  (* unknown here: no local ordering obligation *)
      | Some dst_ ->
        if dst_.t_executed then false
        else if not dst_.t_committed then true  (* wait for its commit *)
        else if reaches s ~from:dep ~target:st.t_wire then
          (* dependency cycle: smaller wire id goes first *)
          dep < st.t_wire
        else true  (* acyclic dependency: it precedes us *)
    in
    if List.exists blocking st.t_deps then s.n_blocked_execs <- s.n_blocked_execs + 1
    else begin
      st.t_executed <- true;
      s.n_execs <- s.n_execs + 1;
      let results =
        List.map
          (fun op ->
            match op with
            | Types.Read key ->
              Common.result_of_read (Store.most_recent_committed s.store key) key
            | Types.Write (key, value) ->
              let v = Store.write s.store key value ~ts:Ts.zero ~writer:st.t_wire in
              Store.commit_in s.store key v;
              Common.result_of_write v key)
          st.t_ops
      in
      Hashtbl.replace s.done_results st.t_wire results;
      s.ctx.send ~dst:st.t_client (Commit_reply { c_wire = st.t_wire; c_results = results });
      (* our execution may unblock transactions that depend on us; wire
         order, not hash order, decides who executes first *)
      Detmap.iter_sorted
        (fun _ other -> if not other.t_executed then try_execute s other)
        s.txns
    end
  end

let commit s ~src ~wire deps =
  match Hashtbl.find_opt s.done_results wire with
  | Some results ->
    (* retransmitted Commit after we already executed (the reply was
       lost): answer from the cache, execute nothing twice *)
    s.ctx.send ~dst:src (Commit_reply { c_wire = wire; c_results = results })
  | None ->
    if not (Hashtbl.mem s.aborted wire) then (
      match Hashtbl.find_opt s.txns wire with
      | None -> () (* commit for a transaction that never pre-accepted here *)
      | Some st ->
        st.t_deps <- deps;
        st.t_committed <- true;
        try_execute s st;
        if s.n_execs mod 1024 = 0 then sweep s)

(* A cancelled transaction is tombstoned: it will never commit, so it
   imposes no ordering obligation on the transactions that listed it as
   a dependency — mark it executed and re-try everything it blocked. *)
let abort s ~wire =
  if not (Hashtbl.mem s.aborted wire) then begin
    Hashtbl.replace s.aborted wire ();
    match Hashtbl.find_opt s.txns wire with
    | None -> ()
    | Some st ->
      if not st.t_executed then begin
        st.t_executed <- true;
        Detmap.iter_sorted
          (fun _ other -> if not other.t_executed then try_execute s other)
          s.txns
      end
  end

let server_handle s ~src msg =
  match msg with
  | Preaccept { pa_wire; pa_round; pa_ops; _ } ->
    preaccept s ~src ~wire:pa_wire ~round:pa_round pa_ops
  | Commit { c_wire; c_deps } -> commit s ~src ~wire:c_wire c_deps
  | Abort { ab_wire } -> abort s ~wire:ab_wire
  | Preaccept_reply _ | Commit_reply _ -> ()

(* --- client --------------------------------------------------------- *)

(* Every participant holds the footprint from pre-accept on, so all of
   them ([decide_to]) hear an Abort. The final round is the Commit. *)
type client = msg Coord.t

let abort_msg wire _commit = Abort { ab_wire = wire }
let make_client cctx ~report = Coord.create cctx ~report ~decide:abort_msg

let preaccept_msg (a : Coord.attempt) ops =
  Preaccept { pa_wire = a.wire; pa_round = a.round; pa_ops = ops; pa_bytes = a.txn.Txn.bytes }

let commit_msg (a : Coord.attempt) = Commit { c_wire = a.wire; c_deps = a.deps }

let advance (c : client) (a : Coord.attempt) =
  match a.shots with
  | shot :: rest ->
    a.shots <- rest;
    Coord.send_round c a ~contact:false preaccept_msg
      (Cluster.Topology.ops_by_server c.ctx.topo shot)
  | [] ->
    a.final <- true;
    Coord.open_round a (List.length a.decide_to);
    List.iter (fun server -> c.ctx.send ~dst:server (commit_msg a)) a.decide_to

let submit (c : client) txn =
  let a = Coord.start c txn in
  a.decide_to <- List.map fst (Cluster.Topology.ops_by_server c.ctx.topo (Txn.ops txn));
  advance c a

let client_handle c ~src msg =
  match msg with
  | Preaccept_reply { pa_wire; pa_round; pa_deps } ->
    (match Coord.tally c ~src ~wire:pa_wire ~round:pa_round ~ok:true [] with
     | Some a ->
       List.iter (fun d -> if not (List.mem d a.Coord.deps) then a.deps <- d :: a.deps) pa_deps;
       if a.awaiting = 0 then advance c a
     | None -> ())
  | Commit_reply { c_wire; c_results } ->
    (* results arrive with execution; the order is by dependencies, so
       the outcome carries no timestamp *)
    (match Coord.tally c ~src ~wire:c_wire ~round:Coord.unstamped ~ok:true c_results with
     | Some a when a.Coord.awaiting = 0 -> Coord.close c a Outcome.Committed ~commit_ts:None
     | Some _ | None -> ())
  | Preaccept _ | Commit _ | Abort _ -> ()

(* Request timeout. Before the commit round the attempt can be
   abandoned: Abort tombstones the footprint on every participant so
   nobody keeps waiting for our commit. Once Commit has been sent the
   transaction is past its point of no return — participants may
   already have executed it — so we retransmit Commit to the laggards
   (answered from their result cache if the reply was lost) and keep
   waiting. *)
let cancel c txn =
  match Coord.current c txn with
  | Some a when a.Coord.final ->
    List.iter
      (fun server ->
        if not (Types.mem_node server a.replied) then c.ctx.send ~dst:server (commit_msg a))
      a.decide_to;
    `Keep_waiting
  | Some _ | None -> Coord.cancel c txn

let protocol : Harness.Protocol.t =
  (module struct
    let name = "Janus-CC"

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server
    let server_handle = server_handle
    let server_stores s = [ s.store ]

    let server_counters s =
      [
        ("dep_entries", float_of_int s.n_dep_entries);
        ("blocked_execs", float_of_int s.n_blocked_execs);
      ]

    type nonrec client = client

    let make_client = make_client
    let client_handle = client_handle
    let submit = submit
    let cancel = cancel
    let client_counters _ = []

    include Harness.Protocol.No_replicas
  end)
