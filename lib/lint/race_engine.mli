(* The race plane: rules R12-R15 over the shared typed call graph
   (Graph). Typed_engine's one walk feeds [on_expr] every expression of
   every unit; [report] then reads the graph. R12's graph-half findings
   and R14's double-acquire findings carry the BFS chain as evidence. *)

(* Record one expression's lock and DLS sites on [node], fire R13, and
   run R12's closure half on function literals handed to a spawn entry
   point (the mutations of globals R12's graph half reads are R9's
   effects, recorded by Typed_engine's walk). [local_fns] is the enclosing
   binding's let-bound function literals, for one-level inlining. *)
val on_expr :
  Graph.t ->
  Graph.ctx ->
  Graph.node option ->
  local_fns:(string, Typedtree.expression) Hashtbl.t Lazy.t ->
  Typedtree.expression ->
  unit

val collect_local_fns :
  Typedtree.expression -> (string, Typedtree.expression) Hashtbl.t

(* R12's graph half, R14 and R15 over the finished graph. *)
val report : Graph.t -> unit
