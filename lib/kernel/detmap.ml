(* Deterministic hash-table traversal.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in hash order, so any
   output they feed depends on the hash function and the table's
   insertion history — exactly the ambient nondeterminism the
   seed-replay contract (docs/determinism.md, rule R3) forbids. These
   wrappers snapshot the bindings and sort them by key first; every
   ordering-sensitive Hashtbl traversal in the tree goes through here
   ([Inttbl] tables have only a sorted traversal of their own).

   Keys are compared with the polymorphic [Stdlib.compare]: fine for
   the int and string keys used across this codebase. Values are never
   compared (they may contain closures). Tables with duplicate
   bindings for one key (Hashtbl.add shadowing) have no canonical
   order among the duplicates; use Hashtbl.replace-style tables. *)

(* Bindings as an association list sorted by key, ascending. *)
let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let iter_sorted f tbl = List.iter (fun (k, v) -> f k v) (sorted_bindings tbl)

let fold_sorted f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings tbl)

(* Keys only, sorted ascending. *)
let sorted_keys tbl = List.map fst (sorted_bindings tbl)
