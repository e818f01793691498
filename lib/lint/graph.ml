(* The scaffolding every lint rule shares: one declaration pass over
   the loaded units, one node table (a node per unit-toplevel value
   binding, keyed by its canonical path, e.g. "Ncc.Server.handle"),
   one call graph over it, and one deterministic BFS that returns the
   chain to every node it reaches.

   Typed_engine walks each unit once and records every plane's per-node
   facts here: ambient effects (R9; their mutations of globals also
   feed R12's graph half), lock and DLS sites (Race_engine), allocation
   sites (Alloc_engine). The reports then read the same graph.

   Edges seen only inside a cold region — the true-branch of a tracing
   guard (Rules.cold_guard_fns), a dead [if false] branch, the arms of
   a match on an attached recorder (Rules.cold_option_types) — are kept
   apart in [n_cold]: the allocation plane walks the graph without
   them, so a function referenced only from diagnostics code stays
   cold; every other rule walks every edge. *)

type effect_cat = [ `Random | `Clock | `Io | `Mutation ]

(* An ambient effect performed directly by a node: R9 reports every
   category, R12's graph half the mutations of module-global state.
   [a_waived] names the rules whose effect-site waiver covers it. *)
type amb = {
  a_cat : effect_cat;
  a_desc : string;
  a_file : string;
  a_line : int;
  a_waived : string list;
}

(* R14: a mutex acquisition. *)
type lock_site = {
  l_key : string;  (* abstract mutex key *)
  l_show : string;  (* display name *)
  l_scoped : bool;  (* acquired via a self-releasing wrapper *)
  l_loc : Location.t;
}

(* R15: a Domain.DLS access. *)
type dls_site = { d_fn : string; d_loc : Location.t }

(* R16-R18: an allocation site outside cold regions. *)
type alloc_site = {
  s_rule : string;  (* "R16" or "R17": the class when directly hot *)
  s_desc : string;
  s_loc : Location.t;
}

type node = {
  n_key : string;
  n_name : string;  (* last component, for entry-point matching *)
  n_file : string;
  n_line : int;
  n_col : int;
  n_fun : bool;  (* binding has arrow type *)
  n_hot_attr : bool;  (* carries [@ncc.hot] *)
  mutable n_refs : string list;  (* referenced globals, outside cold regions *)
  mutable n_cold : string list;  (* referenced only inside cold regions *)
  mutable n_ambs : amb list;
  mutable n_locks : lock_site list;
  mutable n_unlocks : string list;  (* released mutex keys *)
  mutable n_dls : dls_site list;
  mutable n_sites : alloc_site list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable keys : string list;  (* insertion order of node keys *)
  mutable msgs : (string * (string * Location.t) list) list;
      (* R10: msg type key -> its constructors *)
  built : (string, unit) Hashtbl.t;  (* R10: "<msg type key>#<constructor>" *)
  matched : (string, unit) Hashtbl.t;
  mutable loose_dls : (dls_site * string) list;
      (* R15: DLS accesses in module-initialisation code, with the file *)
  mutable findings : Engine.finding list;
  mutable used : (string * int) list;  (* consumed effect-site waivers *)
  only : string list option;
}

let create ?only () =
  {
    nodes = Hashtbl.create 256;
    keys = [];
    msgs = [];
    built = Hashtbl.create 256;
    matched = Hashtbl.create 256;
    loose_dls = [];
    findings = [];
    used = [];
    only;
  }

let rule_active g id =
  match g.only with None -> true | Some ids -> List.mem id ids

let emit g ?(chain = []) ~rule ~(loc : Location.t) msg =
  match Rules.find rule with
  | None -> ()
  | Some r ->
    let file = Paths.norm_fname loc.loc_start.Lexing.pos_fname in
    if not (List.mem file r.allowed_files) then begin
      let line, col = Paths.loc_pos loc in
      let f =
        { Engine.file; line; col; rule; severity = r.severity; message = msg;
          chain }
      in
      if not (List.mem f g.findings) then g.findings <- f :: g.findings
    end

(* Node keys in sorted order: every report iterates this way, so the
   findings (and the chains they carry) never depend on hashing. *)
let sorted_nodes g =
  List.filter_map (Hashtbl.find_opt g.nodes) (List.sort String.compare g.keys)

(* A node's effects no effect-site waiver for [rule] covers, by line. *)
let sorted_ambs ~rule (n : node) =
  List.sort
    (fun x y ->
      let c = Int.compare x.a_line y.a_line in
      if c <> 0 then c else String.compare x.a_desc y.a_desc)
    (List.filter (fun a -> not (List.mem rule a.a_waived)) n.n_ambs)

(* --- per-unit context -------------------------------------------------- *)

type ctx = {
  c_file : string;  (* repo-relative source path *)
  c_paths : string list Ident.Tbl.t;
      (* module and msg-type idents -> canonical components; a module
         alias maps to its target *)
  c_values : string Ident.Tbl.t;
      (* unit-toplevel value idents -> node key, or the canonical path
         of a value brought in by [include] *)
  c_parsed : Pragma.parsed list;  (* the source's waiver pragmas *)
}

let canon_parts ctx (p : Path.t) =
  let rec go = function
    | Path.Pident id -> (
      match Ident.Tbl.find_opt ctx.c_paths id with
      | Some parts -> parts
      | None -> Paths.canon_head (Ident.name id))
    | Path.Pdot (p, s) -> go p @ [ s ]
    | Path.Papply (a, _) -> go a
    | Path.Pextra_ty (p, _) -> go p
  in
  go p

(* A value ident bound at unit level reads as its node key (or, when an
   [include] bound it, as the path it came from). *)
let canon_path ctx (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Ident.Tbl.find_opt ctx.c_values id with
    | Some key -> key
    | None -> String.concat "." (canon_parts ctx p))
  | _ -> String.concat "." (canon_parts ctx p)

(* The canonical name a rule registry matches: "Stdlib.Hashtbl.iter"
   and an alias [H.iter] of it both read "Hashtbl.iter". *)
let name ctx p = Paths.strip_stdlib (canon_path ctx p)

(* The node key (or canonical global) an identifier names, if any:
   references to locals are not call-graph edges. *)
let global_of_path ctx (p : Path.t) =
  match p with
  | Path.Pdot _ -> Some (canon_path ctx p)
  | Path.Pident id -> Ident.Tbl.find_opt ctx.c_values id
  | _ -> None

let global_ident ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> global_of_path ctx p
  | _ -> None

let add_ref (node : node option) ~cold key =
  match node with
  | None -> ()
  | Some n ->
    if cold then (
      if not (List.mem key n.n_cold || List.mem key n.n_refs) then
        n.n_cold <- key :: n.n_cold)
    else if not (List.mem key n.n_refs) then n.n_refs <- key :: n.n_refs

(* Is there an effect-site waiver for [rule] ([allow R9] / [allow R12]
   on the effect's own line)? Such a waiver hides the effect from that
   rule's graph walk, silencing every chain that reaches it; the pragma
   is recorded as used. *)
let site_waived g ctx ~rule line =
  match
    List.find_map
      (function
        | Pragma.Pragma p when Pragma.covers p ~rule ~line -> Some p
        | _ -> None)
      ctx.c_parsed
  with
  | Some p ->
    if not (List.mem (ctx.c_file, p.Pragma.line) g.used) then
      g.used <- (ctx.c_file, p.Pragma.line) :: g.used;
    true
  | None -> false

(* --- small typedtree helpers ------------------------------------------- *)

let rec head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_apply (f, _) -> head_path f
  | _ -> None

let head_name ctx e = Option.map (name ctx) (head_path e)

let positional_args args =
  List.filter_map
    (function
      | Asttypes.Nolabel, Some (e : Typedtree.expression) -> Some e
      | _ -> None)
    args

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

let rec first_param ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_param t
  | _ -> None

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let matches_any ~fns s =
  List.exists (fun f -> Paths.has_suffix ~suffix:f s) fns

let rec module_alias ctx (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some (canon_parts ctx p)
  | Typedtree.Tmod_constraint (me', _, _, _) -> module_alias ctx me'
  | _ -> None

let rec module_structure (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str -> Some str
  | Typedtree.Tmod_constraint (me', _, _, _) -> module_structure me'
  | _ -> None

(* --- cold regions ------------------------------------------------------ *)

let bool_const (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, cd, []) -> (
    match cd.Types.cstr_name with
    | "true" -> Some true
    | "false" -> Some false
    | _ -> None)
  | _ -> None

let is_cold_guard ctx (cond : Typedtree.expression) =
  match head_name ctx cond with
  | Some s -> matches_any ~fns:Rules.cold_guard_fns s
  | None -> false

(* Matching an option of a cold payload type (an attached recorder)
   selects the diagnostics path, not the per-event path. *)
let is_cold_option ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ arg ], _) when Path.same p Predef.path_option -> (
    match Types.get_desc arg with
    | Types.Tconstr (pa, _, _) ->
      matches_any ~fns:Rules.cold_option_types
        (Paths.strip_stdlib (Paths.plain_path pa))
    | _ -> false)
  | _ -> false

(* --- the declaration pass ---------------------------------------------- *)

let register_node g ctx ~prefix ~hot ~is_fn id (loc : Location.t) =
  let name = Ident.name id in
  let key = String.concat "." (prefix @ [ name ]) in
  Ident.Tbl.replace ctx.c_values id key;
  if not (Hashtbl.mem g.nodes key) then begin
    let line, col = Paths.loc_pos loc in
    Hashtbl.replace g.nodes key
      {
        n_key = key;
        n_name = name;
        n_file = Paths.norm_fname loc.loc_start.Lexing.pos_fname;
        n_line = line;
        n_col = col;
        n_fun = is_fn;
        n_hot_attr = hot;
        n_refs = [];
        n_cold = [];
        n_ambs = [];
        n_locks = [];
        n_unlocks = [];
        n_dls = [];
        n_sites = [];
      };
    g.keys <- key :: g.keys
  end

(* The variables a pattern binds, outermost first. *)
let rec pattern_vars : type k. k Typedtree.general_pattern -> (Ident.t * Location.t) list =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> [ (id, p.pat_loc) ]
  | Typedtree.Tpat_alias (p', id, _) -> (id, p.pat_loc) :: pattern_vars p'
  | Typedtree.Tpat_tuple ps -> List.concat_map pattern_vars ps
  | Typedtree.Tpat_construct (_, _, ps, _) -> List.concat_map pattern_vars ps
  | _ -> []

(* The node a top-level binding defines ([let f = ...], [let (_ as f)]). *)
let binding_node g ctx (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) -> (
    match Ident.Tbl.find_opt ctx.c_values id with
    | Some key -> Hashtbl.find_opt g.nodes key
    | None -> None)
  | _ -> None

let hot_attr_of (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = Rules.hot_attribute)
    attrs

let register_type g ctx ~prefix (d : Typedtree.type_declaration) =
  if d.typ_name.txt = Rules.msg_type_name then begin
    let parts = prefix @ [ d.typ_name.txt ] in
    Ident.Tbl.replace ctx.c_paths d.typ_id parts;
    match d.typ_kind with
    | Typedtree.Ttype_variant cds ->
      let cstrs =
        List.map
          (fun (cd : Typedtree.constructor_declaration) ->
            (cd.cd_name.txt, cd.cd_loc))
          cds
      in
      g.msgs <- (String.concat "." parts, cstrs) :: g.msgs
    | _ -> ()
  end

let rec declare_items g ctx ~prefix items =
  List.iter (declare_item g ctx ~prefix) items

and declare_item g ctx ~prefix (item : Typedtree.structure_item) =
  match item.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        let hot = hot_attr_of vb.vb_attributes in
        let is_fn = is_arrow vb.vb_expr.exp_type in
        List.iter
          (fun (id, loc) -> register_node g ctx ~prefix ~hot ~is_fn id loc)
          (pattern_vars vb.vb_pat))
      vbs
  | Typedtree.Tstr_type (_, decls) -> List.iter (register_type g ctx ~prefix) decls
  | Typedtree.Tstr_module mb -> declare_module g ctx ~prefix mb
  | Typedtree.Tstr_recmodule mbs -> List.iter (declare_module g ctx ~prefix) mbs
  | Typedtree.Tstr_include incl -> declare_include g ctx ~prefix incl
  | _ -> ()

(* [include M] binds M's values and modules under new idents: map each
   to M's canonical path, so a use of the included name resolves to
   what it really is. [include struct ... end] declares its items in
   the enclosing module. *)
and declare_include g ctx ~prefix (incl : Typedtree.include_declaration) =
  match module_structure incl.incl_mod with
  | Some str -> declare_items g ctx ~prefix str.str_items
  | None -> (
    match module_alias ctx incl.incl_mod with
    | None -> ()
    | Some target ->
      List.iter
        (function
          | Types.Sig_value (id, _, _) ->
            Ident.Tbl.replace ctx.c_values id
              (String.concat "." (target @ [ Ident.name id ]))
          | Types.Sig_module (id, _, _, _, _) ->
            Ident.Tbl.replace ctx.c_paths id (target @ [ Ident.name id ])
          | _ -> ())
        incl.incl_type)

and declare_module g ctx ~prefix (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
    match module_structure mb.mb_expr with
    | Some str ->
      let prefix' = prefix @ [ Ident.name id ] in
      Ident.Tbl.replace ctx.c_paths id prefix';
      declare_items g ctx ~prefix:prefix' str.str_items
    | None ->
      (* [module Store = Mvstore.Store]: references through the alias
         resolve to the target's nodes, or the call graph would stop
         at every aliased module boundary (and [module H = Hashtbl]
         would hide [H.iter] from R3). *)
      Ident.Tbl.replace ctx.c_paths id
        (match module_alias ctx mb.mb_expr with
         | Some parts -> parts
         | None -> prefix @ [ Ident.name id ]))

(* Declare one unit: its nodes, module paths, msg types and includes. *)
let declare g ~prefix ~file ~source (str : Typedtree.structure) =
  let ctx =
    {
      c_file = file;
      c_paths = Ident.Tbl.create 32;
      c_values = Ident.Tbl.create 64;
      c_parsed = (match source with Some s -> Pragma.scan s | None -> []);
    }
  in
  declare_items g ctx ~prefix str.str_items;
  ctx

(* --- the call graph ---------------------------------------------------- *)

(* Deterministic BFS from [start] over the call graph (refs visited in
   sorted order; [warm] drops the cold-region edges). Returns the
   reached node keys in visiting order, [start] first, and the chain
   from [start] to any reached key. *)
let bfs ?(warm = false) g (start : node) =
  let parent = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen start.n_key ();
  let order = ref [ start.n_key ] in
  let q = Queue.create () in
  Queue.add start.n_key q;
  while not (Queue.is_empty q) do
    let key = Queue.pop q in
    match Hashtbl.find_opt g.nodes key with
    | None -> ()
    | Some n ->
      List.iter
        (fun r ->
          if Hashtbl.mem g.nodes r && not (Hashtbl.mem seen r) then begin
            Hashtbl.replace seen r ();
            Hashtbl.replace parent r key;
            order := r :: !order;
            Queue.add r q
          end)
        (List.sort String.compare
           (if warm then n.n_refs else n.n_refs @ n.n_cold))
  done;
  let chain_to key =
    let rec up key chain =
      match Hashtbl.find_opt parent key with
      | Some p -> up p (key :: chain)
      | None -> key :: chain
    in
    up key []
  in
  (List.rev !order, chain_to)

(* A synthetic location at a node's definition site: graph findings
   anchor on the binding, and the chain carries the effect's own
   file:line. *)
let node_loc (n : node) =
  let pos =
    { Lexing.pos_fname = n.n_file; pos_lnum = n.n_line; pos_bol = 0;
      pos_cnum = n.n_col }
  in
  { Location.loc_ghost = false; loc_start = pos; loc_end = pos }

(* Protocol.S handler entry points (R9; R15 counts them as worker
   reachable): a conventionally named binding under Rules.entry_roots. *)
let is_entry (n : node) =
  List.mem n.n_name Rules.entry_points
  && List.exists
       (fun root ->
         String.length n.n_file >= String.length root
         && String.sub n.n_file 0 (String.length root) = root)
       Rules.entry_roots
