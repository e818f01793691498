(* The race plane: rules R12-R15 over the shared typed call graph
   (Graph). Typed_engine's one walk feeds [on_expr] every expression of
   every unit; [report] then reads the graph. R12's graph-half findings
   and R14's double-acquire findings carry the BFS chain as evidence. *)

(* Record one expression's lock and DLS sites on [node] and fire R13
   (the mutations of globals R12's graph half reads are R9's effects,
   recorded by Typed_engine's walk). *)
val on_expr :
  Graph.t -> Graph.ctx -> Graph.node option -> Typedtree.expression -> unit

(* R12's closure half, per node of the walk inside the spawn-closure
   frames (innermost first): a binding's binders are classified before
   [closure_pat] registers them as frame-local; [closure_expr] threads
   the mutex guard, flags escapes, and is true for a guard wrapper's
   application, whose arguments run guarded. *)
val closure_binding :
  Graph.ctx -> Graph.frame list -> Typedtree.value_binding -> unit

val closure_pat : Graph.frame list -> 'k Typedtree.general_pattern -> unit

val closure_expr :
  Graph.t -> Graph.ctx -> Graph.frame list -> Typedtree.expression -> bool

(* R12's graph half, R14 and R15 over the finished graph. *)
val report : Graph.t -> unit
