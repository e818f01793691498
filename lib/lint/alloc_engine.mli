(* The allocation plane: R16 (boxed-float traffic), R17 (per-call
   allocation), R18 (hotness propagation with BFS chain evidence) and
   R19 (hot-annotation hygiene) over the shared typed call graph
   (Graph). Hot entries come from the Hotpaths seed registry plus
   [@ncc.hot] attributes; see the implementation header and
   docs/performance.md for the site classes and the cold-region
   exemptions. *)

(* Record one expression's allocation sites on [node]. Typed_engine's
   walk calls it only outside cold regions; [in_loop] is set inside a
   for/while body of the same function. *)
val on_expr :
  Graph.ctx -> Graph.node option -> in_loop:bool -> Typedtree.expression -> unit

(* Format-string literals: static constants, not allocations. *)
val is_format_constant : Types.constructor_description -> bool

(* R16-R19 over the finished graph. *)
val report : Graph.t -> unit
