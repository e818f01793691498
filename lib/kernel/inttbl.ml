(* Open addressing over one value array ([keyed]: values carry their
   keys) or a key array beside it. A slot is free when it holds
   [empty]. The capacity is a power of two and the load stays at most
   one half, so a probe run (and a miss) stays short. *)

type 'a t = {
  key : 'a -> int;  (* [keyed] layout: a value's key *)
  keyed : bool;
  empty : 'a;
  mutable keys : int array;  (* pair layout only; [||] when [keyed] *)
  mutable vals : 'a array;
  mutable mask : int;  (* capacity - 1 *)
  mutable shift : int;  (* int_size - log2 capacity *)
  mutable n : int;
  mutable sorted : int array;  (* ascending keys, while [sorted_ok] *)
  mutable sorted_ok : bool;
}

let init_bits = 3

let make ~keyed ~key ~empty =
  let cap = 1 lsl init_bits in
  {
    key;
    keyed;
    empty;
    keys = (if keyed then [||] else Array.make cap 0);
    vals = Array.make cap empty;
    mask = cap - 1;
    shift = Sys.int_size - init_bits;
    n = 0;
    sorted = [||];
    sorted_ok = true;
  }

let keyed ~key ~empty = make ~keyed:true ~key ~empty
let create ~empty = make ~keyed:false ~key:(fun _ -> 0) ~empty
let length t = t.n
let absent t = t.empty

(* Fibonacci hashing: the top bits of [k] times 2^63 / golden ratio.
   Keys that share their low bits (TPC-C's keys are all one residue
   modulo the server count) still spread over the whole array. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

let key_at t i v = if t.keyed then t.key v else t.keys.(i)

let set t i k v =
  t.vals.(i) <- v;
  if not t.keyed then t.keys.(i) <- k

(* The slot holding [k], or [lnot i] for the free slot [i] that ends
   its probe run. *)
let rec probe t k i =
  let v = t.vals.(i) in
  if v == t.empty then lnot i
  else if key_at t i v = k then i
  else probe t k ((i + 1) land t.mask)

let find t k =
  let i = probe t k (home t k) in
  if i >= 0 then t.vals.(i) else t.empty

let mem t k = probe t k (home t k) >= 0

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length vals in
  t.vals <- Array.make cap t.empty;
  if not t.keyed then t.keys <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  for j = 0 to Array.length vals - 1 do
    let v = vals.(j) in
    if v != t.empty then begin
      let k = if t.keyed then t.key v else keys.(j) in
      set t (lnot (probe t k (home t k))) k v
    end
  done

let replace t k v =
  if v == t.empty then invalid_arg "Inttbl.replace: the empty value";
  let i = probe t k (home t k) in
  if i >= 0 then t.vals.(i) <- v
  else begin
    t.n <- t.n + 1;
    t.sorted_ok <- false;
    if 2 * t.n > Array.length t.vals then begin
      grow t;
      set t (lnot (probe t k (home t k))) k v
    end
    else set t (lnot i) k v
  end

(* Slot [hole] was vacated: walk the rest of its probe run and pull
   back every binding whose home does not lie cyclically in
   (hole, j], so each key stays reachable from its home. *)
let rec shift_back t hole j =
  let v = t.vals.(j) in
  if v == t.empty then t.vals.(hole) <- t.empty
  else
    let k = key_at t j v in
    let next = (j + 1) land t.mask in
    if (j - home t k) land t.mask >= (j - hole) land t.mask then begin
      set t hole k v;
      shift_back t j next
    end
    else shift_back t hole next

let remove t k =
  let i = probe t k (home t k) in
  if i >= 0 then begin
    t.n <- t.n - 1;
    t.sorted_ok <- false;
    shift_back t i ((i + 1) land t.mask)
  end

let sorted_keys t =
  if not t.sorted_ok then begin
    let a = Array.make t.n 0 in
    let j = ref 0 in
    Array.iteri
      (fun i v ->
        if v != t.empty then begin
          a.(!j) <- key_at t i v;
          incr j
        end)
      t.vals;
    Array.sort Int.compare a;
    t.sorted <- a;
    t.sorted_ok <- true
  end;
  t.sorted

let iter_sorted f t =
  Array.iter
    (fun k ->
      let v = find t k in
      if v != t.empty then f k v)
    (sorted_keys t)

let fold_sorted f t acc =
  Array.fold_left
    (fun acc k ->
      let v = find t k in
      if v != t.empty then f k v acc else acc)
    acc (sorted_keys t)
