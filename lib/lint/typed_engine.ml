(* The lint engine: every rule, over the compiler's typedtree, loaded
   from the .cmt files dune produces (-bin-annot is on by default) via
   Cmt_format. Identifiers are matched by their resolved paths, so a
   module alias ([module H = Hashtbl]), a local open or an [include]
   cannot hide a forbidden call.

   One declaration pass (Graph.declare) builds the node table; one walk
   per unit ([walk]) then fires the site-local rules and records every
   plane's per-node facts on the shared call graph:

     R1-R4 forbidden identifiers and type constructors (Rules.all);
     R5  mutable state created at module-initialisation time;
     R6  wildcard exception handlers;
     R7  a polymorphic structural comparison ([=], [compare],
         [Hashtbl.hash], [List.mem], ...) instantiated at a type that
         needs its owning module's comparator (Rules.owned_types),
         or that contains floats, functions or hash-ordered
         containers;
     R8  float equality anywhere, and float ordering applied directly
         to a raw simulated-time read (Rules.time_sources);
     R9  each function's ambient effects (randomness, wall clock, I/O,
         top-level mutation), reported — with the full call chain as
         evidence — for every path from a Protocol.S handler entry
         point to an effect;
     R10 liveness of protocol [msg] variant constructors: never built
         or never matched means a dead protocol message;

   plus the race plane R12-R15 (Race_engine) and the allocation plane
   R16-R19 (Alloc_engine). Then the waiver pass (Engine.apply_waivers)
   runs per unit. R9 and R12 additionally honour *effect-site*
   waivers: an [allow R9] pragma on the line that performs an audited
   effect (e.g. a reset-on-run global counter) removes that effect from
   the graph, which silences every chain reaching it — one waiver at
   the effect instead of one per handler.

   Known limitations (see docs/determinism.md): nominal types other
   than the registry entries are opaque (the engine does not expand
   type declarations, which would need a full environment); calls made
   through functor parameters, first-class-module fields or stored
   closures do not produce call-graph edges; the analyses are
   whole-program over the loaded unit set, so lint the whole tree. *)

open Graph

type unit_info = {
  u_name : string;  (* canonical module path, e.g. "Ncc.Server" *)
  u_file : string;  (* repo-relative source path *)
  u_str : Typedtree.structure;
  u_source : string option;  (* for waiver pragmas *)
}

(* --- type classification (R7) ----------------------------------------- *)

let show_type ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception exn ->
    ignore exn;
    "<type>"

(* Does [ty] contain a component that makes structural comparison
   wrong? Returns what was found and the comparator to use instead.
   Named types outside the registry are not expanded (no environment);
   that opacity is documented. *)
let rec classify ?(depth = 0) ty =
  if depth > 8 then None
  else
    let recurse = classify ~depth:(depth + 1) in
    match Types.get_desc ty with
    | Types.Tarrow _ ->
      Some ("a function type", "an explicit key or id comparison")
    | Types.Ttuple ts -> List.find_map recurse ts
    | Types.Tpoly (t, _) -> recurse t
    | Types.Tconstr (p, args, _) ->
      let s = Paths.strip_stdlib (Paths.plain_path p) in
      if Path.same p Predef.path_float then
        Some ("float", "a tolerance, or the integer-nanosecond path")
      else if matches_any ~fns:Rules.hash_containers s then
        Some (s ^ " (hash-ordered container)", "comparing sorted bindings")
      else (
        match
          List.find_opt
            (fun (t, _) -> Paths.has_suffix ~suffix:t s)
            Rules.owned_types
        with
        | Some (t, hint) -> Some (t, hint)
        | None -> List.find_map recurse args)
    | _ -> None

(* --- the rules one run applies ----------------------------------------- *)

type active = {
  forbid : (string * string * (string -> bool)) list;
      (* R1-R4: rule id, summary, matcher on canonical names *)
  toplevel : Rules.rule list;  (* R5 *)
  wildcard : Rules.rule list;  (* R6 *)
  r7 : bool;
  r8 : bool;
  r9 : bool;
  r10 : bool;
  mutations : bool;  (* R9 or R12: collect mutations of globals *)
  race : bool;  (* any of R12-R15 *)
  r12 : bool;
  alloc : bool;  (* any of R16-R18 *)
}

let active g =
  let live = List.filter (fun (r : Rules.rule) -> rule_active g r.id) Rules.all in
  let strip = List.map Paths.strip_stdlib in
  {
    forbid =
      List.filter_map
        (fun (r : Rules.rule) ->
          match r.matcher with
          | Rules.Forbid_prefixes ps ->
            let ps = strip ps in
            Some
              ( r.id,
                r.summary,
                fun s -> List.exists (fun p -> Paths.has_prefix ~prefix:p s) ps )
          | Rules.Forbid_idents ids ->
            let ids = strip ids in
            Some (r.id, r.summary, fun s -> List.mem s ids)
          | _ -> None)
        live;
    toplevel =
      List.filter (fun (r : Rules.rule) -> r.matcher = Rules.Toplevel_mutable) live;
    wildcard =
      List.filter (fun (r : Rules.rule) -> r.matcher = Rules.Wildcard_try) live;
    r7 = rule_active g "R7";
    r8 = rule_active g "R8";
    r9 = rule_active g "R9";
    r10 = rule_active g "R10";
    mutations = rule_active g "R9" || rule_active g "R12";
    race = List.exists (rule_active g) [ "R12"; "R13"; "R14"; "R15" ];
    r12 = rule_active g "R12";
    alloc = List.exists (rule_active g) [ "R16"; "R17"; "R18" ];
  }

(* R9's effect categories, by the site-local rule policing each. *)
let r1_prefixes =
  match Rules.find "R1" with
  | Some { matcher = Rules.Forbid_prefixes ps; _ } ->
    List.map Paths.strip_stdlib ps
  | _ -> [ "Random" ]

let r2_idents =
  match Rules.find "R2" with
  | Some { matcher = Rules.Forbid_idents ids; _ } ->
    List.map Paths.strip_stdlib ids
  | _ -> []

let effect_of s =
  if List.exists (fun pre -> Paths.has_prefix ~prefix:pre s) r1_prefixes then
    Some `Random
  else if List.mem s r2_idents then Some `Clock
  else if List.mem s Rules.io_fns then Some `Io
  else None

let add_amb g ctx (node : node option) cat desc (loc : Location.t) =
  match node with
  | None -> ()
  | Some n ->
    let file = Paths.norm_fname loc.loc_start.Lexing.pos_fname in
    if not (List.mem file (Rules.effect_allowed_files cat)) then begin
      let line, _ = Paths.loc_pos loc in
      let rules = match cat with `Mutation -> [ "R9"; "R12" ] | _ -> [ "R9" ] in
      let a_waived = List.filter (fun rule -> site_waived g ctx ~rule line) rules in
      n.n_ambs <-
        { a_cat = cat; a_desc = desc; a_file = file; a_line = line; a_waived }
        :: n.n_ambs
    end

let is_time_read ctx e =
  match head_name ctx e with
  | Some s -> matches_any ~fns:Rules.time_sources s
  | None -> false

let eq_fns = [ "="; "<>" ]
let ord_fns = [ "<"; "<="; ">"; ">="; "compare"; "min"; "max" ]

(* Does a top-level binding pattern bind anything? [let () = ...]
   bodies are main-style driver code, not module state. *)
let rec binds_variable : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Typedtree.Tpat_var _ | Typedtree.Tpat_alias _ -> true
  | Typedtree.Tpat_tuple ps | Typedtree.Tpat_array ps ->
    List.exists binds_variable ps
  | Typedtree.Tpat_construct (_, _, ps, _) -> List.exists binds_variable ps
  | Typedtree.Tpat_record (fields, _) ->
    List.exists (fun (_, _, p') -> binds_variable p') fields
  | Typedtree.Tpat_or (a, b, _) -> binds_variable a || binds_variable b
  | _ -> false

(* --- the walk ------------------------------------------------------------ *)

let within (inner : Location.t) (outer : Location.t) =
  inner.loc_start.pos_fname = outer.loc_start.pos_fname
  && inner.loc_start.pos_cnum >= outer.loc_start.pos_cnum
  && inner.loc_end.pos_cnum <= outer.loc_end.pos_cnum

(* Walk one unit's whole structure once. Site-local rules fire
   everywhere; per-node facts go to the node of the enclosing top-level
   binding (None for module-initialisation code). Cold regions (see
   Graph) are walked too — only R16-R18 skip them, and their edges are
   tagged cold. Besides the node, the walk keeps:

     [init]      R5: the code runs at module initialisation (a binding
                 of a structure, outside any function, lazy or object);
     [local_fns] the unit's let-bound function literals, by binder: a
                 local function is bound before it is called;
     [frames]    R12's closure half: the spawn closures being walked
                 (Graph.frame), innermost first;
     [captures]  R17: the let-bound local function literals being
                 walked (Graph.capture).

   R12 inlines a same-binding local function called under a spawn
   closure by walking its body again ([inline]), for the closure half
   alone. *)
let walk g ctx a (str : Typedtree.structure) =
  let default = Tast_iterator.default_iterator in
  let node = ref None and inside = ref false in
  let cold = ref 0 and loop = ref 0 and init = ref false in
  let local_fns = Hashtbl.create 16 in
  let frames = ref [] and captures = ref [] and replay = ref false in
  let enter n f =
    node := n;
    inside := true;
    f ();
    node := None;
    inside := false
  in
  let in_cold f =
    incr cold;
    f ();
    decr cold
  in
  let shift d = List.iter (fun fr -> fr.f_guard <- fr.f_guard + d) !frames in
  let inline sub fr body =
    let saved = (!frames, !captures, !init, !replay) in
    frames := [ fr ];
    captures := [];
    init := false;
    replay := true;
    sub.Tast_iterator.expr sub body;
    let f, c, i, r = saved in
    frames := f;
    captures := c;
    init := i;
    replay := r
  in
  let note_local_fns vbs =
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Typedtree.Tpat_var (id, _), Typedtree.Texp_function _ ->
          Hashtbl.replace local_fns (Ident.unique_name id) vb.vb_expr
        | _ -> ())
      vbs
  in
  let forbidden (loc : Location.t) s =
    List.iter
      (fun (id, summary, m) ->
        if m s then emit g ~rule:id ~loc (Printf.sprintf "%s: %s" s summary))
      a.forbid
  in
  let wildcard (p : _ Typedtree.general_pattern) =
    List.iter (fun (r : Rules.rule) -> emit g ~rule:r.id ~loc:p.pat_loc r.summary)
      a.wildcard
  in
  let cstr_key (cd : Types.constructor_description) =
    match Types.get_desc cd.cstr_res with
    | Types.Tconstr (p, _, _) ->
      let key = canon_path ctx p in
      if Paths.has_suffix ~suffix:Rules.msg_type_name key then
        Some (key ^ "#" ^ cd.cstr_name)
      else None
    | _ -> None
  in
  (* R5: mutable state created at module initialisation. *)
  let toplevel (e : Typedtree.expression) =
    let flag what =
      List.iter
        (fun (r : Rules.rule) ->
          emit g ~rule:r.id ~loc:e.exp_loc
            (Printf.sprintf "%s at module toplevel: %s" what r.summary))
        a.toplevel
    in
    match e.exp_desc with
    | Typedtree.Texp_array _ -> flag "array literal"
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _)
      when List.mem (name ctx p) Rules.mutable_creators ->
      flag (name ctx p)
    | _ -> ()
  in
  (* R1-R4, R6-R10 and the call-graph edges: everything but R5 that
     looks at one expression. *)
  let check (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (p, lid, _) ->
      let global = global_of_path ctx p in
      (* every global is a graph edge; R9's effect sources are not
         nodes, so their edges lead nowhere *)
      Option.iter (add_ref !node ~cold:(!cold > 0)) global;
      if not (List.is_empty a.forbid) || a.r7 || a.r8 || a.r9 then begin
        let s =
          Paths.strip_stdlib
            (match global with Some c -> c | None -> canon_path ctx p)
        in
        forbidden lid.loc s;
      (* R7: polymorphic comparison instantiated at a bad type. The
         ident's own type is the instantiation, so partial applications
         and higher-order uses (List.sort compare) are caught too. *)
      (if a.r7 && List.mem s Rules.poly_compare_fns then
         match first_param e.exp_type with
         | Some ty when not (List.mem s eq_fns && is_float ty) -> (
           match classify ty with
           | Some (what, hint) ->
             emit g ~rule:"R7" ~loc:e.exp_loc
               (Printf.sprintf "polymorphic %s at type %s involves %s; use %s"
                  s (show_type ty) what hint)
           | None -> ())
         | _ -> ());
      (* R8: float equality (always wrong on simulated time; tolerance
         or integer nanoseconds instead). *)
      (if a.r8 && List.mem s eq_fns then
         match first_param e.exp_type with
         | Some ty when is_float ty ->
           emit g ~rule:"R8" ~loc:e.exp_loc
             (Printf.sprintf
                "float %s: use a tolerance, or compare integer nanoseconds \
                 (Clock.read_ns)" s)
         | _ -> ());
        Option.iter (fun cat -> add_amb g ctx !node cat s e.exp_loc) (effect_of s)
      end
    | Typedtree.Texp_apply (({ exp_desc = Typedtree.Texp_ident (p, _, _); _ } as f), args)
      when a.r8 || a.mutations ->
      let s = name ctx p in
      (* R8: ordering a raw simulated-time read. *)
      (if a.r8 && List.mem s ord_fns then
         match first_param f.exp_type with
         | Some ty
           when is_float ty
                && List.exists
                     (function _, Some x -> is_time_read ctx x | _ -> false)
                     args ->
           emit g ~rule:"R8" ~loc:e.exp_loc
             (Printf.sprintf
                "%s on a raw simulated-time float: compare a precomputed \
                 deadline, or integer nanoseconds (Clock.read_ns)" s)
         | _ -> ());
      (* R9/R12: in-place mutation of a module-global value. *)
      if a.mutations && List.mem s Rules.mutator_fns then
        Option.iter
          (fun gl ->
            add_amb g ctx !node `Mutation
              (Printf.sprintf "%s on global %s" s gl)
              e.exp_loc)
          (List.find_map
             (function _, Some x -> Some (global_ident ctx x) | _ -> None)
             args
          |> Option.join)
    | Typedtree.Texp_construct (_, cd, _) when a.r10 ->
      Option.iter (fun k -> Hashtbl.replace g.built k ()) (cstr_key cd)
    | Typedtree.Texp_setfield (tgt, _, _, _) when a.mutations ->
      Option.iter
        (fun gl ->
          add_amb g ctx !node `Mutation ("field assignment on global " ^ gl)
            e.exp_loc)
        (global_ident ctx tgt)
    | Typedtree.Texp_try (_, cases) ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          match c.c_lhs.pat_desc with
          | Typedtree.Tpat_any when c.c_guard = None -> wildcard c.c_lhs
          | _ -> ())
        cases
    | Typedtree.Texp_match (_, cases, _) ->
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          match c.c_lhs.pat_desc with
          | Typedtree.Tpat_exception { pat_desc = Typedtree.Tpat_any; _ }
            when c.c_guard = None ->
            wildcard c.c_lhs
          | _ -> ())
        cases
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) ->
      Option.iter
        (Ident.Tbl.replace ctx.c_paths id)
        (module_alias ctx me)
    | _ -> ()
  in
  let free_local (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, vd)
      when not (Ident.Tbl.mem ctx.c_values id) ->
      List.iter
        (fun k ->
          if
            not
              (List.exists (Ident.same id) k.k_own
              || within vd.Types.val_loc k.k_fn.exp_loc)
          then k.k_free <- true)
        !captures
    | _ -> ()
  in
  let spawn f =
    a.r12 && (not !replay)
    && match head_name ctx f with
       | Some s -> matches_any ~fns:Rules.spawn_fns s
       | None -> false
  in
  (* R17: each let-bound function literal of [vbs] is a capture while
     the walk is inside it. *)
  let let_binding sub vbs (vb : Typedtree.value_binding) =
    match (vb.vb_expr.exp_desc, !node) with
    | Typedtree.Texp_function _, Some n
      when a.alloc && !cold = 0 && !loop = 0 && not !replay ->
      let own =
        List.concat_map
          (fun (vb : Typedtree.value_binding) ->
            List.map fst (pattern_vars vb.vb_pat))
          vbs
      in
      let k = { k_fn = vb.vb_expr; k_own = own; k_free = false } in
      captures := k :: !captures;
      sub.Tast_iterator.value_binding sub vb;
      captures := List.tl !captures;
      if k.k_free then Alloc_engine.capture_site n vb.vb_expr
    | _ -> sub.Tast_iterator.value_binding sub vb
  in
  let expr sub (e : Typedtree.expression) =
    let walk = sub.Tast_iterator.expr sub in
    match e.exp_desc with
    | Typedtree.Texp_construct (_, cd, _) when Alloc_engine.is_format_constant cd
      ->
      ()  (* a static format literal: nothing to check inside *)
    | _ -> (
      if not !replay then begin
        check e;
        if !init then toplevel e;
        free_local e;
        if a.race then Race_engine.on_expr g ctx !node e;
        if a.alloc && !cold = 0 then
          Alloc_engine.on_expr ctx !node ~in_loop:(!loop > 0) e
      end;
      match e.exp_desc with
      | _ when !frames <> [] && Race_engine.closure_expr g ctx !frames e ->
        shift 1;
        default.expr sub e;
        shift (-1)
      | Typedtree.Texp_apply (f, args) ->
        (* a call of a local function under a spawn closure: inline it,
           once per spawn closure and guard state — a function first
           reached under a lock is walked again where it is reached
           unguarded *)
        (match f.exp_desc with
         | Typedtree.Texp_ident (Path.Pident id, _, _) when !frames <> [] ->
           let u = Ident.unique_name id in
           Option.iter
             (fun body ->
               List.iter
                 (fun fr ->
                   let key = if fr.f_guard > 0 then u ^ "#guarded" else u in
                   if not (Hashtbl.mem fr.f_visited key) then begin
                     Hashtbl.replace fr.f_visited key ();
                     inline sub (frame ~guard:fr.f_guard ~visited:fr.f_visited ())
                       body
                   end)
                 !frames)
             (Hashtbl.find_opt local_fns u)
         | _ -> ());
        if spawn f then begin
          (* a function handed to a spawn point is a frame of its own *)
          walk f;
          List.iter
            (function
              | Asttypes.Nolabel, Some (x : Typedtree.expression) -> (
                match x.exp_desc with
                | Typedtree.Texp_ident (Path.Pident id, _, _) ->
                  Option.iter (inline sub (frame ()))
                    (Hashtbl.find_opt local_fns (Ident.unique_name id));
                  walk x
                | _ when is_arrow x.exp_type ->
                  frames := frame () :: !frames;
                  walk x;
                  frames := List.tl !frames
                | _ -> walk x)
              | _, x -> Option.iter walk x)
            args
        end
        else default.expr sub e
      | Typedtree.Texp_ifthenelse (c, t, e_opt) ->
        (* a tracing-only branch is diagnostics, not per-event cost; a
           dead branch never runs. Each branch starts from the guard
           depth the condition left: an unlock in one branch does not
           unguard the other. *)
        walk c;
        let cold_t, cold_e =
          if is_cold_guard ctx c then (true, false)
          else
            match bool_const c with Some b -> (not b, b) | None -> (false, false)
        in
        let guards = List.map (fun fr -> fr.f_guard) !frames in
        let branch is_cold x =
          if is_cold then in_cold (fun () -> walk x) else walk x;
          List.iter2 (fun fr d -> fr.f_guard <- d) !frames guards
        in
        branch cold_t t;
        Option.iter (branch cold_e) e_opt
      | Typedtree.Texp_while (c, body) ->
        walk c;
        incr loop;
        walk body;
        decr loop
      | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
        walk lo;
        walk hi;
        incr loop;
        walk body;
        decr loop
      | Typedtree.Texp_function _ | Typedtree.Texp_lazy _
      | Typedtree.Texp_object _ ->
        (* the body runs later, per call: not at module initialisation,
           and a function literal's body is not the enclosing loop's *)
        let i = !init and l = !loop in
        init := false;
        (match e.exp_desc with Typedtree.Texp_function _ -> loop := 0 | _ -> ());
        default.expr sub e;
        init := i;
        loop := l
      | Typedtree.Texp_let (_, vbs, body) ->
        note_local_fns vbs;
        List.iter (let_binding sub vbs) vbs;
        walk body
      | _ -> default.expr sub e)
  in
  (* patterns hold no expressions: only R10, R1-R4 (type constraints)
     and the closure frames' binders need to look inside *)
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    Race_engine.closure_pat !frames p;
    (match p.pat_desc with
     | Typedtree.Tpat_construct (_, cd, _, _) when a.r10 ->
       Option.iter (fun k -> Hashtbl.replace g.matched k ()) (cstr_key cd)
     | _ -> ());
    if a.r10 || (not (List.is_empty a.forbid)) || !frames <> [] then
      default.pat sub p
  in
  let typ sub (ct : Typedtree.core_type) =
    (* types hold no expressions: only R1-R4 need to look inside *)
    if not (List.is_empty a.forbid) then begin
      (match ct.ctyp_desc with
       | Typedtree.Ttyp_constr (p, lid, _) -> forbidden lid.loc (name ctx p)
       | _ -> ());
      default.typ sub ct
    end
  in
  let value_binding sub vb =
    if !frames <> [] then Race_engine.closure_binding ctx !frames vb;
    default.value_binding sub vb
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    (* aliases inside local structures; the unit's own are declared *)
    (match (mb.mb_id, module_alias ctx mb.mb_expr) with
     | Some id, Some parts when not (Ident.Tbl.mem ctx.c_paths id) ->
       Ident.Tbl.replace ctx.c_paths id parts
     | _ -> ());
    default.module_binding sub mb
  in
  let structure_item sub (item : Typedtree.structure_item) =
    match item.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
      (* R5 looks at every structure, nested modules included; a
         [let () = ...] body is main-style driver code, not module
         state *)
      if !inside then note_local_fns vbs;
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let i = !init in
          init := i || (a.toplevel <> [] && binds_variable vb.vb_pat);
          if !inside then sub.Tast_iterator.value_binding sub vb
          else
            enter (binding_node g ctx vb) (fun () ->
                sub.Tast_iterator.value_binding sub vb);
          init := i)
        vbs
    | Typedtree.Tstr_eval _ when not !inside ->
      enter None (fun () -> default.structure_item sub item)
    | _ -> default.structure_item sub item
  in
  let iter =
    { default with expr; pat; typ; value_binding; module_binding; structure_item }
  in
  iter.structure iter str

(* --- the interprocedural pass (R9) ------------------------------------ *)

let cat_label = function
  | `Random -> "ambient randomness"
  | `Clock -> "the wall clock"
  | `Io -> "ambient I/O"
  | `Mutation -> "top-level mutable state"

(* For each handler entry point, the first effect of each category in
   BFS order, with the chain to it. *)
let report_r9 g =
  List.iter
    (fun n ->
      if is_entry n then begin
        let reach, chain_to = bfs g n in
        let hits = ref [] in
        List.iter
          (fun key ->
            match Hashtbl.find_opt g.nodes key with
            | None -> ()
            | Some m ->
              List.iter
                (fun am ->
                  if not (List.exists (fun (c, _, _) -> c = am.a_cat) !hits) then
                    hits := (am.a_cat, key, am) :: !hits)
                (sorted_ambs ~rule:"R9" m))
          reach;
        List.iter
          (fun (cat, key, am) ->
            let chain =
              chain_to key
              @ [ Printf.sprintf "%s (%s:%d)" am.a_desc am.a_file am.a_line ]
            in
            emit g ~chain ~rule:"R9" ~loc:(node_loc n)
              (Printf.sprintf "handler %s can reach %s: %s" n.n_key
                 (cat_label cat) am.a_desc))
          (List.rev !hits)
      end)
    (sorted_nodes g)

(* --- R10: msg constructor liveness ------------------------------------ *)

let report_r10 g =
  List.iter
    (fun (key, cstrs) ->
      List.iter
        (fun (cname, loc) ->
          let ck = key ^ "#" ^ cname in
          let problem =
            match (Hashtbl.mem g.built ck, Hashtbl.mem g.matched ck) with
            | false, false -> Some "never constructed and never matched"
            | false, true -> Some "never constructed"
            | true, false -> Some "never explicitly matched"
            | true, true -> None
          in
          Option.iter
            (fun what ->
              emit g ~rule:"R10" ~loc
                (Printf.sprintf
                   "dead protocol message: constructor %s of %s is %s" cname
                   key what))
            problem)
        cstrs)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) g.msgs)

(* --- drivers ----------------------------------------------------------- *)

let lint_units ?only units =
  let g = Graph.create ?only () in
  let ctxs =
    List.map
      (fun u ->
        ( u,
          Graph.declare g
            ~prefix:(Paths.split_mangled u.u_name)
            ~file:u.u_file ~source:u.u_source u.u_str ))
      units
  in
  let a = active g in
  List.iter (fun (u, ctx) -> walk g ctx a u.u_str) ctxs;
  if rule_active g "R9" then report_r9 g;
  if rule_active g "R10" then report_r10 g;
  Race_engine.report g;
  Alloc_engine.report g;
  (* the waiver pass, per unit *)
  let of_file file = List.filter (fun (f : Engine.finding) -> f.file = file) in
  let files = List.map (fun (u, _) -> u.u_file) ctxs in
  List.sort Engine.compare_findings
    (List.concat_map
       (fun (u, ctx) ->
         Engine.apply_waivers ?only ~file:u.u_file
           ~used:
             (List.filter_map
                (fun (f, l) -> if f = u.u_file then Some l else None)
                g.used)
           ctx.c_parsed
           (of_file u.u_file g.findings))
       ctxs
    @ List.filter
        (fun (f : Engine.finding) -> not (List.mem f.file files))
        g.findings)

(* --- loading units ----------------------------------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let cmt_finding ~file message =
  { Engine.file; line = 1; col = 0; rule = "cmt"; severity = Rules.Error;
    message; chain = [] }

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn -> Error (Printexc.to_string exn)
  | infos -> (
    match infos.cmt_annots with
    | Cmt_format.Implementation str ->
      let file =
        Paths.norm_fname (Option.value infos.cmt_sourcefile ~default:path)
      in
      if Filename.check_suffix file ".ml-gen" then Ok None
        (* dune-generated library-wrapper shims: alias lists, nothing
           to analyse *)
      else
        Ok
          (Some
             {
               u_name = String.concat "." (Paths.canon_head infos.cmt_modname);
               u_file = file;
               u_str = str;
               u_source = read_file file;
             })
    | _ -> Ok None)

let load_units paths =
  let errs = ref [] in
  let seen = Hashtbl.create 64 in
  let units =
    List.filter_map
      (fun p ->
        match load_cmt p with
        | Ok (Some u) when not (Hashtbl.mem seen u.u_name) ->
          Hashtbl.replace seen u.u_name ();
          Some u
        | Ok _ -> None
        | Error msg ->
          let file = Paths.norm_fname p in
          errs := cmt_finding ~file ("cannot read cmt: " ^ msg) :: !errs;
          None)
      (List.sort String.compare paths)
  in
  (units, List.rev !errs)

let lint_cmts ?only ?files paths =
  let units, errs = load_units paths in
  let findings = lint_units ?only units in
  let scoped =
    match files with
    | None -> findings
    | Some files ->
      let linted = List.map (fun u -> u.u_file) units in
      List.filter_map
        (fun file ->
          if List.mem file linted then None
          else
            Some
              (cmt_finding ~file
                 "no .cmt for this file: build the tree first (dune build \
                  @check) and pass its root as --cmt-root"))
        files
      @ List.filter (fun (f : Engine.finding) -> List.mem f.file files) findings
  in
  List.sort Engine.compare_findings (errs @ scoped)

(* --- in-process typechecking (fixture tests) --------------------------- *)

(* Typecheck one implementation against the compiler's initial
   environment (the stdlib, plus the unix library so fixtures can name
   the wall clock). This is how the fixture tests exercise the rules
   without writing .cmt files to disk: the same analysis runs on the
   freshly typed tree. *)
let typecheck ~file source =
  Clflags.dont_write_files := true;
  Clflags.include_dirs := [ "+unix" ];
  ignore (Warnings.parse_options false "-a");
  Compmisc.init_path ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Location.input_name := file;
  match Parse.implementation lexbuf with
  | exception exn -> Error ("parse", "cannot parse: " ^ Printexc.to_string exn)
  | past -> (
    match Typemod.type_structure env past with
    | str, _, _, _, _ ->
      Ok
        {
          u_name =
            String.capitalize_ascii
              (Filename.remove_extension (Filename.basename file));
          u_file = Engine.normalize file;
          u_str = str;
          u_source = Some source;
        }
    | exception exn ->
      Error ("cmt", "cannot typecheck: " ^ Printexc.to_string exn))

let check_impl ~file source = Result.map_error snd (typecheck ~file source)

let lint_source ?only ~file source =
  match typecheck ~file source with
  | Ok u -> lint_units ?only [ u ]
  | Error (rule, message) ->
    [ { (cmt_finding ~file:(Engine.normalize file) message) with rule } ]
