(* The race plane: rules R12-R15 over the typedtree, policing the
   domain-parallel surface (everything run via Pool.submit/map/post or
   Domain.spawn).

   The analysis is a flow-insensitive, field-sensitive escape check
   over *abstract locations*:

     - a top-level mutable value is named by its node key
       ("Checker.Stream.tally");
     - a local mutable value by its binder (unique per Ident, so
       shadowing cannot confuse two locations);
     - a mutable record field by "<record-type>.<field>" — field
       sensitive, so two fields of one record are distinct locations,
       and type-based, so the same field reached through two aliases
       is one location.

   R12 (escape) has two cooperating halves over the shared call graph
   (Graph, the one R9 and R18 walk too):

     - the *graph half* — a binding that references a spawn entry
       point (Rules.spawn_fns) is a spawn node; any top-level mutation
       in its reachable effect footprint is reported with the BFS call
       chain as evidence, at any call depth.
     - the *closure half* — each function literal handed to a spawn
       entry point is walked with an environment of closure-local
       binders. A mutator or container read applied to a location
       that is not closure-local (a captured ref/Hashtbl/Buffer/
       Queue/array, or a mutable field rooted at a captured value) is
       an escape. Safe sinks: Atomic.* and Domain.DLS.* operations,
       regions guarded by a held mutex (Mutex.lock...unlock threading
       through the body, or a Rules.guard_fns wrapper), and array
       reads/writes indexed by a per-slot index (a binder assigned
       from Atomic.fetch_and_add — the pool's submission-order merge
       idiom). Calls from the closure to functions let-bound in the
       same enclosing binding are inlined one level deep, with the
       callee's own binders local and everything else captured.

   R13 (mixed discipline) fires anywhere, not just under the pool: a
   plain write that *replaces* an Atomic.t cell (record field holding
   an Atomic.t assigned with <-, a ref of Atomic.t assigned with :=,
   an Atomic.t array slot assigned with Array.set) gives the location
   two unsynchronised identities — a domain holding the old cell keeps
   using it after the swap.

   R14 (lock discipline): a node that performs Mutex.lock on a mutex
   key with no Mutex.unlock of the same key anywhere in its body leaks
   the lock on every path (Mutex.protect and Fun.protect ~finally are
   the sanctioned shapes); and a node that acquires a key and can
   reach — on the call graph, chain reported — another node acquiring
   the same key is a self-deadlock, because OCaml mutexes are not
   reentrant. Mutex keys are abstract locations as above, so [t.m]
   in two functions is the same key via "<type>.m", while two distinct
   local mutexes never unify.

   R15 (DLS misuse): with the worker-reachable region defined as
   everything reachable from spawn nodes and from Protocol.S handler
   entry points (handlers execute on worker domains during parallel
   sweeps), a Domain.DLS.get/set in a node outside that region is
   domain-local state that only ever lives on the main domain. The
   rule is silent when the linted unit set spawns no domains.

   Approximations, by design (see docs/determinism.md): reads of
   mutable record fields are not escapes (a read-write race is caught
   at its write side); a closure passed to the pool as a value rather
   than a literal or a same-binding local function is only covered by
   the graph half; rebinding a captured location ([let h = tally in])
   is tracked one step (the alias stays shared) but not through data
   structures; guard regions are threaded in traversal order, so a
   lock taken in a branch guards the rest of the enclosing body. *)

open Graph

let is_atomic_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    Paths.has_suffix ~suffix:"Atomic.t"
      (Paths.strip_stdlib (Paths.plain_path p))
  | _ -> false

(* The record-type component of a field's abstract location, from the
   field's result type ("Pool.worker" for [w.m] on a worker). *)
let record_type_name ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Paths.strip_stdlib (canon_path ctx p)
  | _ -> "<record>"

(* Peel a field chain down to its root: [s.stats.aborts] -> [s]. *)
let rec field_root (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_field (e', _, _) -> field_root e'
  | _ -> e

(* --- mutex keys -------------------------------------------------------- *)

(* Abstract location of a mutex expression. Local mutexes get a "~"
   key from the binder's unique name: never equal across nodes, so
   they cannot create false double-acquire matches. *)
let resolve_mutex ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident ((Path.Pdot _ as p), _, _) ->
    let s = canon_path ctx p in
    (s, s)
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
    match Ident.Tbl.find_opt ctx.c_values id with
    | Some key -> (key, key)
    | None -> ("~" ^ Ident.unique_name id, Ident.name id))
  | Typedtree.Texp_field (e', _, lbl) ->
    let key = record_type_name ctx e'.exp_type ^ "." ^ lbl.Types.lbl_name in
    (key, key)
  | _ -> ("~unresolved", "<mutex>")

(* "Pool.worker.m" and "Harness.Pool.worker.m" are the same key seen
   from inside and outside the defining unit. *)
let key_match a b =
  a = b || Paths.has_suffix ~suffix:a b || Paths.has_suffix ~suffix:b a

(* --- the closure half of R12 ------------------------------------------- *)

type cenv = {
  e_locals : (string, unit) Hashtbl.t;
      (* binders (Ident.unique_name) bound inside the closure *)
  e_aliased : (string, unit) Hashtbl.t;
      (* binders whose right-hand side was a captured/global location:
         still shared, despite being bound inside *)
  e_slots : (string, unit) Hashtbl.t;
      (* binders assigned from Rules.slot_index_sources *)
  mutable e_guard : int;  (* > 0 inside a mutex-guarded region *)
}

(* What does an identifier inside the closure name? *)
type residence =
  | Local  (* bound inside the closure: job-private *)
  | Global of string  (* unit-toplevel value: the graph half's turf *)
  | Captured of string  (* a binder of an enclosing function: shared *)

let residence ctx env (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
    let u = Ident.unique_name id in
    if Hashtbl.mem env.e_locals u && not (Hashtbl.mem env.e_aliased u) then
      Some Local
    else (
      match Ident.Tbl.find_opt ctx.c_values id with
      | Some key -> Some (Global key)
      | None -> Some (Captured (Ident.name id)))
  | Typedtree.Texp_ident ((Path.Pdot _ as p), _, _) ->
    Some (Global (canon_path ctx p))
  | _ -> None

let slot_indexed env args =
  match positional_args args with
  | _ :: { Typedtree.exp_desc = Typedtree.Texp_ident (Path.Pident id, _, _); _ }
    :: _ ->
    Hashtbl.mem env.e_slots (Ident.unique_name id)
  | _ -> false

let slot_fns =
  [ "Array.set"; "Array.unsafe_set"; "Array.get"; "Array.unsafe_get" ]

let escape_hint =
  "route it through Atomic or Domain.DLS, guard it with a mutex, or write \
   per-slot at the job's own index"

(* Walk the body of a closure handed to a spawn entry point.
   [local_fns] maps binders of the enclosing binding to their
   function bodies for one-level inlining; [visited] stops inlining
   cycles. The iterator's own traversal order threads the guard
   state: a Mutex.lock seen earlier in a sequence guards the rest. *)
let rec closure_walk g ctx ~local_fns ~visited env (expr : Typedtree.expression)
    =
  let flag_access ~loc what target =
    if env.e_guard = 0 && rule_active g "R12" then
      emit g ~rule:"R12" ~loc
        (Printf.sprintf
           "%s on %s, which is shared with the submitting domain: %s" what
           target escape_hint)
  in
  let vb_hook sub (vb : Typedtree.value_binding) =
    (* Classify the binder before the default traversal registers it
       as closure-local via the pattern hook below. *)
    let binders =
      List.map (fun (id, _) -> Ident.unique_name id) (pattern_vars vb.vb_pat)
    in
    (match head_name ctx vb.vb_expr with
     | Some s when matches_any ~fns:Rules.slot_index_sources s ->
       List.iter (fun u -> Hashtbl.replace env.e_slots u ()) binders
     | _ -> ());
    (match residence ctx env vb.vb_expr with
     | Some (Global _) | Some (Captured _) ->
       (* [let h = tally in ...]: h is an alias of shared state. *)
       List.iter (fun u -> Hashtbl.replace env.e_aliased u ()) binders
     | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let pat_hook : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.Typedtree.pat_desc with
     | Typedtree.Tpat_var (id, _) ->
       Hashtbl.replace env.e_locals (Ident.unique_name id) ()
     | Typedtree.Tpat_alias (_, id, _) ->
       Hashtbl.replace env.e_locals (Ident.unique_name id) ()
     | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr_hook sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
      let s = match head_name ctx f with Some s -> s | None -> "" in
      if matches_any ~fns:Rules.guard_fns s then begin
        (* the wrapper's argument runs with the lock held / cleanup
           guaranteed *)
        env.e_guard <- env.e_guard + 1;
        Tast_iterator.default_iterator.expr sub e;
        env.e_guard <- env.e_guard - 1
      end
      else begin
        if Paths.has_suffix ~suffix:"Mutex.lock" s then
          env.e_guard <- env.e_guard + 1
        else if Paths.has_suffix ~suffix:"Mutex.unlock" s then
          env.e_guard <- max 0 (env.e_guard - 1);
        (* one-level inlining of same-binding local functions *)
        (match f.Typedtree.exp_desc with
         | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
           let u = Ident.unique_name id in
           match Hashtbl.find_opt local_fns u with
           | Some body when not (Hashtbl.mem visited u) ->
             Hashtbl.replace visited u ();
             let env' =
               {
                 e_locals = Hashtbl.create 16;
                 e_aliased = Hashtbl.create 4;
                 e_slots = Hashtbl.create 4;
                 e_guard = env.e_guard;
               }
             in
             closure_walk g ctx ~local_fns ~visited env' body
           | _ -> ())
         | _ -> ());
        (if Paths.has_prefix ~prefix:"Atomic" s
            || Paths.has_prefix ~prefix:"Domain.DLS" s
         then () (* safe sinks: synchronised by construction *)
         else if List.mem s slot_fns && slot_indexed env args then
           () (* per-slot access at the job's own index *)
         else if
           List.mem s Rules.mutator_fns || List.mem s Rules.container_read_fns
         then
           match positional_args args with
           | tgt :: _ -> (
             match residence ctx env (field_root tgt) with
             | Some (Captured name) ->
               let what =
                 match tgt.Typedtree.exp_desc with
                 | Typedtree.Texp_field (e', _, lbl) ->
                   Printf.sprintf "%s via field %s.%s" s
                     (record_type_name ctx e'.exp_type)
                     lbl.Types.lbl_name
                 | _ -> s
               in
               flag_access ~loc:e.Typedtree.exp_loc what ("captured " ^ name)
             | Some Local | Some (Global _) | None ->
               (* globals are the graph half's findings; unresolvable
                  targets (call results, DLS.get payloads) are not
                  abstract locations we can name *)
               ())
           | [] -> ());
        Tast_iterator.default_iterator.expr sub e
      end)
    | Typedtree.Texp_setfield (tgt, _, lbl, _) ->
      (match residence ctx env (field_root tgt) with
       | Some (Captured name) ->
         flag_access ~loc:e.exp_loc
           (Printf.sprintf "field write %s.%s"
              (record_type_name ctx tgt.exp_type)
              lbl.Types.lbl_name)
           ("captured " ^ name)
       | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_ifthenelse (c, t, e_opt) ->
      (* Guard state is per-branch: an unlock in the then-branch must
         not strip the guard from the else-branch (the worker-loop
         idiom unlocks in one branch and pops-then-unlocks in the
         other). *)
      sub.Tast_iterator.expr sub c;
      let saved = env.e_guard in
      sub.Tast_iterator.expr sub t;
      env.e_guard <- saved;
      Option.iter (sub.Tast_iterator.expr sub) e_opt;
      env.e_guard <- saved
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr = expr_hook;
      pat = pat_hook;
      value_binding = vb_hook;
    }
  in
  iter.expr iter expr

(* --- per-expression facts ----------------------------------------------- *)

(* Let-bound functions of one top-level binding, for inlining. Only
   syntactic function literals qualify: [let f = Queue.pop q] also has
   arrow type, but its RHS runs at bind time (possibly under a lock),
   so re-walking it at the call site would misplace the effect. *)
let collect_local_fns (expr : Typedtree.expression) =
  let is_fun (e : Typedtree.expression) =
    match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false
  in
  let fns = Hashtbl.create 8 in
  let vb_hook sub (vb : Typedtree.value_binding) =
    (match (vb.vb_pat.pat_desc, is_fun vb.vb_expr) with
     | Typedtree.Tpat_var (id, _), true ->
       Hashtbl.replace fns (Ident.unique_name id) vb.vb_expr
     | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let iter = { Tast_iterator.default_iterator with value_binding = vb_hook } in
  iter.expr iter expr;
  fns

(* One expression of a binding's body (or of loose module-init code),
   called by Typed_engine's walk (which records the mutations of
   globals R12's graph half reads, as R9 effects): record lock/unlock
   and DLS sites on [node]; fire the site-local R13 checks;
   run the closure half on every function literal handed to a spawn
   entry point. [local_fns] is the enclosing binding's
   [collect_local_fns], forced only at a spawn call. *)
let on_expr g ctx node ~local_fns (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
    let s = name ctx p in
    if matches_any ~fns:Rules.dls_fns s then
      match node with
      | Some n -> n.n_dls <- { d_fn = s; d_loc = e.exp_loc } :: n.n_dls
      | None ->
        g.loose_dls <- ({ d_fn = s; d_loc = e.exp_loc }, ctx.c_file) :: g.loose_dls)
  | Typedtree.Texp_apply (f, args) ->
    let s = match head_name ctx f with Some s -> s | None -> "" in
    (* lock/unlock collection (R14) *)
    (match (node, positional_args args) with
     | Some n, m :: _ ->
       let lock ~scoped =
         let l_key, l_show = resolve_mutex ctx m in
         n.n_locks <-
           { l_key; l_show; l_scoped = scoped; l_loc = e.exp_loc } :: n.n_locks
       in
       if Paths.has_suffix ~suffix:"Mutex.lock" s then lock ~scoped:false
       else if Paths.has_suffix ~suffix:"Mutex.unlock" s then
         n.n_unlocks <- fst (resolve_mutex ctx m) :: n.n_unlocks
       else if Paths.has_suffix ~suffix:"Mutex.protect" s then lock ~scoped:true
     | _ -> ());
    (* R13: a plain write that replaces an Atomic.t cell *)
    (if
       rule_active g "R13"
       && (s = ":=" || matches_any ~fns:[ "Array.set"; "Array.unsafe_set";
                                          "Array.fill" ] s)
     then
       match first_param f.Typedtree.exp_type with
       | Some ty -> (
         match Types.get_desc ty with
         | Types.Tconstr (_, [ elt ], _) when is_atomic_ty elt ->
           emit g ~rule:"R13" ~loc:e.exp_loc
             (Printf.sprintf
                "%s replaces an Atomic.t cell: a domain holding the old \
                 cell keeps using it; mutate via Atomic.set/exchange on \
                 the existing cell" s)
         | _ -> ())
       | None -> ());
    (* the closure half: function literals handed to a spawn point *)
    if rule_active g "R12" && matches_any ~fns:Rules.spawn_fns s then begin
      let local_fns = Lazy.force local_fns in
      let walk body =
        let env =
          {
            e_locals = Hashtbl.create 32;
            e_aliased = Hashtbl.create 4;
            e_slots = Hashtbl.create 4;
            e_guard = 0;
          }
        in
        closure_walk g ctx ~local_fns ~visited:(Hashtbl.create 8) env body
      in
      List.iter
        (fun (a : Typedtree.expression) ->
          match a.exp_desc with
          | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
            match Hashtbl.find_opt local_fns (Ident.unique_name id) with
            | Some body -> walk body
            | None -> ())
          | _ -> if is_arrow a.exp_type then walk a)
        (positional_args args)
    end
  | Typedtree.Texp_setfield (tgt, _, lbl, _) ->
    if rule_active g "R13" && is_atomic_ty lbl.Types.lbl_arg then
      emit g ~rule:"R13" ~loc:e.exp_loc
        (Printf.sprintf
           "field write replaces Atomic.t cell %s.%s: a domain holding \
            the old cell keeps using it; mutate via Atomic.set/exchange \
            on the existing cell"
           (record_type_name ctx tgt.exp_type)
           lbl.Types.lbl_name)
  | _ -> ()

let is_spawn_node (n : node) =
  List.exists (matches_any ~fns:Rules.spawn_fns) (n.n_refs @ n.n_cold)

(* --- R12, graph half --------------------------------------------------- *)

let report_r12_graph g =
  List.iter
    (fun n ->
      if is_spawn_node n then
        let reach, chain_to = bfs g n in
        let hit =
          List.find_map
            (fun k ->
              match Hashtbl.find_opt g.nodes k with
              | Some m ->
                List.find_map
                  (fun a ->
                    match a.a_cat with `Mutation -> Some (k, a) | _ -> None)
                  (sorted_ambs ~rule:"R12" m)
              | None -> None)
            reach
        in
        match hit with
        | Some (k, mut) ->
          let chain =
            chain_to k
            @ [ Printf.sprintf "%s (%s:%d)" mut.a_desc mut.a_file mut.a_line ]
          in
          emit g ~chain ~rule:"R12" ~loc:(node_loc n)
            (Printf.sprintf
               "%s hands work to the domain pool but can reach shared \
                mutable state: %s"
               n.n_key mut.a_desc)
        | None -> ())
    (sorted_nodes g)

(* --- R14 --------------------------------------------------------------- *)

let report_r14 g =
  List.iter
    (fun n ->
      let locks =
        List.sort
          (fun a b ->
            let la, _ = Paths.loc_pos a.l_loc and lb, _ = Paths.loc_pos b.l_loc in
            Int.compare la lb)
          n.n_locks
      in
      (* leak: an unscoped acquire with no release anywhere in the same
         body *)
      List.iter
        (fun l ->
          if
            (not l.l_scoped)
            && not (List.exists (fun u -> key_match u l.l_key) n.n_unlocks)
          then
            emit g ~rule:"R14" ~loc:l.l_loc
              (Printf.sprintf
                 "Mutex.lock on %s is never released in %s; wrap the \
                  critical section in Mutex.protect or release it in \
                  Fun.protect ~finally"
                 l.l_show n.n_key))
        locks;
      (* double-acquire through the call graph *)
      let reported = Hashtbl.create 4 in
      List.iter
        (fun l ->
          if not (Hashtbl.mem reported l.l_key) then begin
            let reach, chain_to = bfs g n in
            match
              List.find_map
                (fun k ->
                  if k = n.n_key then None
                  else
                    match Hashtbl.find_opt g.nodes k with
                    | Some m ->
                      Option.map
                        (fun l' -> (k, l'))
                        (List.find_opt
                           (fun l' -> key_match l.l_key l'.l_key)
                           m.n_locks)
                    | None -> None)
                reach
            with
            | Some (k, l') ->
              Hashtbl.replace reported l.l_key ();
              let file = Paths.norm_fname l'.l_loc.loc_start.pos_fname in
              let line, _ = Paths.loc_pos l'.l_loc in
              let chain =
                chain_to k
                @ [ Printf.sprintf "Mutex.lock %s (%s:%d)" l'.l_show file line ]
              in
              emit g ~chain ~rule:"R14" ~loc:l.l_loc
                (Printf.sprintf
                   "%s acquires %s and can reach %s, which acquires it \
                    again — OCaml mutexes are not reentrant (self-deadlock)"
                   n.n_key l.l_show k)
            | None -> ()
          end)
        locks)
    (sorted_nodes g)

(* --- R15 --------------------------------------------------------------- *)

let report_r15 g =
  let nodes = sorted_nodes g in
  let spawns = List.filter is_spawn_node nodes in
  if spawns <> [] then begin
    let reachable = Hashtbl.create 256 in
    List.iter
      (fun root ->
        let reach, _ = bfs g root in
        List.iter (fun k -> Hashtbl.replace reachable k ()) reach)
      (spawns @ List.filter is_entry nodes);
    let flag_site (d : dls_site) where =
      emit g ~rule:"R15" ~loc:d.d_loc
        (Printf.sprintf
           "%s in %s, which the domain pool never reaches: this \
            domain-local state only ever lives on the main domain — move \
            the access under the pool, or drop DLS for an explicit value"
           d.d_fn where)
    in
    List.iter
      (fun n ->
        if not (Hashtbl.mem reachable n.n_key) then
          List.iter (fun d -> flag_site d n.n_key) n.n_dls)
      nodes;
    List.iter
      (fun (d, file) -> flag_site d ("module initialisation of " ^ file))
      g.loose_dls
  end

let report g =
  if rule_active g "R12" then report_r12_graph g;
  if rule_active g "R14" then report_r14 g;
  if rule_active g "R15" then report_r15 g
