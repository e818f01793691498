(* The allocation plane: rules R16-R19 over the typedtree, policing
   the simulator's hot paths for per-event allocation.

   Hotness has two sources: the Hotpaths seed registry (node-key
   suffixes of the functions that are hot by construction — the event
   loop and heap, clock arithmetic, per-message dispatch, store
   lookup, the streaming checker's feed) and [@ncc.hot] attributes on
   individual bindings. Both are *entries*; hotness then propagates
   over the shared call graph (Graph, the one R9 and R12 walk) — a function
   transitively reachable from a hot entry inherits hotness, with the
   deterministic BFS chain from the entry as evidence (R18), so
   annotations stay sparse.

   Site classes, collected while walking each node's body:

     R16 (boxed-float traffic): [ref e] at float type; a float flowing
         into a tuple, a constructor payload (Some/::/variant), or a
         boxed (non-all-float) record field — creation and setfield;
     R17 (per-call allocation): a closure literal inside a for/while
         loop or handed to a closure sink (Rules.closure_sink_fns:
         Pool.submit and friends, Engine.schedule); non-float tuple
         and Some/:: construction; string building
         (Rules.string_build_fns).

   A site in a *directly* hot function (seed or annotated) fires as
   R16/R17 at the allocation's own location, naming the hot function.
   A site in a *transitively* hot function fires as R18 at the same
   location, carrying entry -> ... -> function -> site as the chain.
   Either way the finding anchors on the allocating line, so the
   standard line-scoped waiver pragmas apply.

   Cold regions are exempt (the diagnostics paths run only when
   enabled, not per event): the true-branch of a conditional guarded
   by Rules.cold_guard_fns (the tracing toggle) and every arm of a
   match on an option of a Rules.cold_option_types type (the attached-
   recorder test of the observability plane). Branch pruning is also
   semantic: [if false then e] never runs e, so no sites are collected
   there and its call-graph edges are cold — a function only reachable
   through a dead branch stays cold.

   R19 (hygiene) checks the annotations themselves: [@ncc.hot] on a
   non-function binding, or on a function that no node in the linted
   tree references and no seed names, is a dangling hot claim. Unused
   [allow R16-R18] waivers surface through the standard pragma
   machinery (Engine.apply_waivers).

   Approximations, by design (docs/performance.md): the rules are
   structural, so allocation hidden behind a call into an un-linted
   unit (stdlib internals, C stubs) is invisible; closures passed as
   values rather than literals are not closure sites (their bodies are
   still walked wherever they are defined); constant closures that
   OCaml statically allocates are indistinguishable from capturing
   ones and may need a waiver. *)

open Graph

(* A field lives in a boxed representation when the record is not the
   flat all-float or unboxed form: writing a float there boxes it. *)
let boxed_repr (r : Types.record_representation) =
  match r with
  | Types.Record_regular -> true
  | Types.Record_inlined _ -> true
  | Types.Record_float | Types.Record_unboxed _ -> false
  | Types.Record_extension _ -> true

(* Format-string literals desugar into CamlinternalFormatBasics
   constructor trees (with tuples inside, for float conversions); the
   whole tree is a static constant, so walking it would manufacture
   allocation findings out of "%f". *)
let is_format_constant (cd : Types.constructor_description) =
  match Types.get_desc cd.Types.cstr_res with
  | Types.Tconstr (p, _, _) -> (
    match Paths.plain_parts p with
    | ("CamlinternalFormatBasics" | "CamlinternalFormat") :: _ -> true
    | _ -> false)
  | _ -> false

(* --- allocation sites ---------------------------------------------------- *)

(* One expression outside cold regions, called by Typed_engine's walk
   (which skips cold regions and dead branches, and does not descend
   into format constants): record its allocation sites on [node].
   [in_loop] is set inside a for/while body of the same function. *)
let on_expr ctx node ~in_loop (e : Typedtree.expression) =
  match node with
  | None -> ()
  | Some n -> (
    let add_site rule desc (loc : Location.t) =
      n.n_sites <- { s_rule = rule; s_desc = desc; s_loc = loc } :: n.n_sites
    in
    match e.exp_desc with
    | Typedtree.Texp_function _ when in_loop ->
      add_site "R17" "closure literal inside a hot loop (fresh closure per \
                      iteration)" e.exp_loc
    | Typedtree.Texp_apply (f, args) ->
      let s = match head_name ctx f with Some s -> s | None -> "" in
      (if s = "ref" then
         match positional_args args with
         | a :: _ when is_float a.exp_type ->
           add_site "R16" "float ref (one heap box, rewritten per :=)"
             e.exp_loc
         | _ -> ());
      if matches_any ~fns:Rules.string_build_fns s then
        add_site "R17"
          (Printf.sprintf "string building via %s (allocates the result per \
                           call)" s)
          e.exp_loc;
      if matches_any ~fns:Rules.closure_sink_fns s then
        List.iter
          (fun (a : Typedtree.expression) ->
            match a.exp_desc with
            | Typedtree.Texp_function _ ->
              add_site "R17"
                (Printf.sprintf "closure literal handed to %s (fresh \
                                 closure per call)" s)
                a.exp_loc
            | _ -> ())
          (positional_args args)
    | Typedtree.Texp_tuple exprs ->
      if List.exists (fun (x : Typedtree.expression) -> is_float x.exp_type) exprs
      then
        add_site "R16" "float flows into a tuple (boxed per component)"
          e.exp_loc
      else add_site "R17" "tuple construction (one block per call)" e.exp_loc
    | Typedtree.Texp_construct (_, cd, args) when args <> [] ->
      if List.exists (fun (x : Typedtree.expression) -> is_float x.exp_type) args
      then
        add_site "R16"
          (Printf.sprintf "float flows into constructor %s (boxed payload)"
             cd.Types.cstr_name)
          e.exp_loc
      else if List.mem cd.Types.cstr_name [ "Some"; "::" ] then
        add_site "R17"
          (Printf.sprintf "%s construction (one block per call)"
             (if cd.Types.cstr_name = "::" then "list cell" else "option"))
          e.exp_loc
    | Typedtree.Texp_record { fields; representation; _ } ->
      if boxed_repr representation then
        Array.iter
          (fun ((lbl : Types.label_description), def) ->
            match def with
            | Typedtree.Overridden (_, _) when is_float lbl.Types.lbl_arg ->
              add_site "R16"
                (Printf.sprintf
                   "float record field %s in a mixed record (boxed per \
                    write); use a flat float array or an all-float record"
                   lbl.Types.lbl_name)
                e.exp_loc
            | _ -> ())
          fields
    | Typedtree.Texp_setfield (_, _, lbl, v) ->
      if
        boxed_repr lbl.Types.lbl_repres
        && is_float lbl.Types.lbl_arg
        && is_float v.Typedtree.exp_type
      then
        add_site "R16"
          (Printf.sprintf
             "write to boxed float field %s (one box per assignment)"
             lbl.Types.lbl_name)
          e.exp_loc
    | _ -> ())

(* --- hotness ----------------------------------------------------------- *)

let is_hot_entry (n : node) = n.n_hot_attr || Hotpaths.is_seed n.n_key

let sorted_sites (n : node) =
  List.sort
    (fun a b ->
      let la, ca = Paths.loc_pos a.s_loc and lb, cb = Paths.loc_pos b.s_loc in
      let c = Int.compare la lb in
      if c <> 0 then c
      else
        let c = Int.compare ca cb in
        if c <> 0 then c else String.compare a.s_desc b.s_desc)
    n.n_sites

let report_sites g nodes =
  (* Propagate hotness over the graph without its cold edges: entries
     processed in sorted key order, first entry to reach a node owns
     its chain (deterministic). *)
  let hot_via = Hashtbl.create 128 in  (* key -> (entry, chain_to key) *)
  List.iter
    (fun entry ->
      let reach, chain_to = bfs ~warm:true g entry in
      List.iter
        (fun k ->
          if not (Hashtbl.mem hot_via k) then
            Hashtbl.replace hot_via k (entry.n_key, chain_to k))
        reach)
    (List.filter is_hot_entry nodes);
  (* R16/R17 in directly hot functions; R18 in transitively hot ones. *)
  List.iter
    (fun n ->
      if is_hot_entry n then
        List.iter
          (fun s ->
            if rule_active g s.s_rule then
              emit g ~rule:s.s_rule ~loc:s.s_loc
                (Printf.sprintf "%s in hot function %s" s.s_desc n.n_key))
          (sorted_sites n)
      else
        match Hashtbl.find_opt hot_via n.n_key with
        | Some (entry, chain) when rule_active g "R18" ->
          List.iter
            (fun s ->
              let file = Paths.norm_fname s.s_loc.loc_start.pos_fname in
              let line, _ = Paths.loc_pos s.s_loc in
              emit g
                ~chain:
                  (chain @ [ Printf.sprintf "%s (%s:%d)" s.s_desc file line ])
                ~rule:"R18" ~loc:s.s_loc
                (Printf.sprintf "%s in %s, which is hot via %s" s.s_desc
                   n.n_key entry))
            (sorted_sites n)
        | _ -> ())
    nodes

(* R19: hygiene of the annotations themselves. A hot claim counts as
   referenced only through warm edges, like hotness itself. *)
let report_r19 g nodes =
  let referenced key =
    List.exists
      (fun (n : node) ->
        n.n_key <> key
        && List.exists
             (fun r ->
               r = key || Paths.has_suffix ~suffix:r key
               || Paths.has_suffix ~suffix:key r)
             n.n_refs)
      nodes
  in
  List.iter
    (fun n ->
      if n.n_hot_attr then
        if not n.n_fun then
          emit g ~rule:"R19" ~loc:(node_loc n)
            (Printf.sprintf
               "[@%s] on %s, which is not a function: a plain value has no \
                call-graph to propagate hotness into"
               Rules.hot_attribute n.n_key)
        else if (not (Hotpaths.is_seed n.n_key)) && not (referenced n.n_key)
        then
          emit g ~rule:"R19" ~loc:(node_loc n)
            (Printf.sprintf
               "[@%s] on %s, which nothing in the linted tree references: a \
                dangling hot claim on dead code"
               Rules.hot_attribute n.n_key))
    nodes

let report g =
  let nodes = sorted_nodes g in
  if List.exists (rule_active g) [ "R16"; "R17"; "R18" ] then
    report_sites g nodes;
  if rule_active g "R19" then report_r19 g nodes
