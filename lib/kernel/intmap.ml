(* Sorted parallel arrays: [keys.(0 .. n-1)] ascending, [vals.(i)] the
   binding of [keys.(i)]. Values are stored as options so [find_opt]
   hands back the stored cell without allocating, and a vacated slot
   is reset to [None] rather than keeping a dead value reachable. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable n : int;
}

let create () = { keys = [||]; vals = [||]; n = 0 }
let length t = t.n

(* Index of [k] if bound, else [-(i + 1)] where [i] is its insertion
   point. *)
let rec search_in t k lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let m = t.keys.(mid) in
    if m = k then mid else if m < k then search_in t k (mid + 1) hi else search_in t k lo mid

let search t k = search_in t k 0 t.n

let find_opt t k =
  let i = search t k in
  if i >= 0 then t.vals.(i) else None

let grow t =
  let cap = max 4 (2 * Array.length t.keys) in
  let keys = Array.make cap 0 and vals = Array.make cap None in
  Array.blit t.keys 0 keys 0 t.n;
  Array.blit t.vals 0 vals 0 t.n;
  t.keys <- keys;
  t.vals <- vals

let replace t k v =
  let i = search t k in
  if i >= 0 then t.vals.(i) <- Some v
  else begin
    let i = -(i + 1) in
    if t.n = Array.length t.keys then grow t;
    Array.blit t.keys i t.keys (i + 1) (t.n - i);
    Array.blit t.vals i t.vals (i + 1) (t.n - i);
    t.keys.(i) <- k;
    t.vals.(i) <- Some v;
    t.n <- t.n + 1
  end

let remove t k =
  let i = search t k in
  if i >= 0 then begin
    Array.blit t.keys (i + 1) t.keys i (t.n - i - 1);
    Array.blit t.vals (i + 1) t.vals i (t.n - i - 1);
    t.n <- t.n - 1;
    t.vals.(t.n) <- None
  end
