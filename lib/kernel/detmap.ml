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

(* --- cached traversal ------------------------------------------------

   Sweep hot paths traverse the same table over and over while its key
   set barely changes (a metrics registry after the first sample). Snapshotting and sorting the
   bindings on every traversal is O(n log n) plus an allocation per
   binding; a cache holder keeps the sorted key array from the last
   traversal and revalidates it in O(n) with zero allocation.

   Validity check: same binding count and every cached key still
   present. For replace-style tables (one binding per key — the only
   kind these helpers support, see above) that implies the key sets are
   identical. The cache is an explicit value owned by the caller, not
   hidden module state, so the seed-replay contract is untouched:
   traversal order is a pure function of the table's key set either
   way. *)

type 'k cache = { mutable ck : 'k array }

let cache () = { ck = [||] }

let cache_valid c tbl =
  Array.length c.ck = Hashtbl.length tbl
  && Array.for_all (fun k -> Hashtbl.mem tbl k) c.ck

let cached_sorted_keys c tbl =
  if not (cache_valid c tbl) then begin
    let a = Array.of_list (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
    Array.sort Stdlib.compare a;
    c.ck <- a
  end;
  c.ck

let iter_sorted_cached c f tbl =
  Array.iter (fun k -> f k (Hashtbl.find tbl k)) (cached_sorted_keys c tbl)

let fold_sorted_cached c f tbl init =
  Array.fold_left (fun acc k -> f k (Hashtbl.find tbl k) acc) init
    (cached_sorted_keys c tbl)
