(* A classic array-based binary min-heap, specialised to (priority,
   sequence, payload) triples. The sequence number makes the order of
   equal-priority elements deterministic (FIFO in insertion order),
   which the simulator relies on for reproducibility.

   The layout is structure-of-arrays: priorities live in a flat
   [float array], which OCaml stores unboxed, so a push writes the
   priority without allocating. The sifts are top-level functions
   that take the heap: a local [let rec] capturing [t] would build a
   closure block on every push and pop (R17). [push], [top_prio] and
   [pop_min] allocate nothing beyond amortised capacity doubling. *)

type 'a t = {
  mutable prios : float array;  (* flat storage: unboxed floats *)
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prios = [||]; seqs = [||]; data = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let before t i j =
  t.prios.(i) < t.prios.(j)
  (* ncc-lint: allow R8 — exact float tie falls through to the seq tie-breaker; a tolerance would reorder distinct deadlines *)
  || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let p = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- p;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

(* [fill] seeds the slots of a fresh payload array, so growing from
   capacity 0 needs no pre-existing element and push order stays
   irrelevant to the representation. *)
let grow t fill =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let fresh_p = Array.make new_cap 0.0 in
  Array.blit t.prios 0 fresh_p 0 t.size;
  t.prios <- fresh_p;
  let fresh_s = Array.make new_cap 0 in
  Array.blit t.seqs 0 fresh_s 0 t.size;
  t.seqs <- fresh_s;
  let fresh_d = Array.make new_cap fill in
  Array.blit t.data 0 fresh_d 0 t.size;
  t.data <- fresh_d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && before t l i then l else i in
  let m = if r < t.size && before t r m then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let push t prio payload =
  if t.size = Array.length t.data then grow t payload;
  t.prios.(t.size) <- prio;
  t.seqs.(t.size) <- t.next_seq;
  t.data.(t.size) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_prio t =
  if t.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  t.prios.(0)

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.data.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let payload = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prios.(0) <- t.prios.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  payload
