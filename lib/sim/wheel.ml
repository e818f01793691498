(* A hierarchical timing wheel specialised to the simulator's event
   queue: O(1) amortised schedule and pop against the binary heap's
   O(log n), with the same delivery contract — events come out in
   (priority, scheduling-sequence) order, so equal-instant events keep
   FIFO order and a run driven by the wheel is byte-identical to one
   driven by {!Heap} (the qcheck identity property pins this).

   Layout: [levels] wheels of [wsize] slots each; level [l] covers
   [wsize^(l+1)] ticks at a granularity of [wsize^l] ticks per slot. A
   tick is [resolution] seconds. Placement is *window-aligned*: an
   event goes to the smallest level at which its tick shares all bits
   above that level's slot field with [base] (the current tick). That
   invariant is what makes the forward-only slot scans in [advance]
   complete: an entry at level [l] always lives at a slot index >= the
   base's slot index at that level, because base never passes an
   undelivered tick. (The naive delta-based placement — level by
   log distance — breaks exactly here: a short-delta event landing in
   the *next* window sits behind the scan cursor and is lost.)

   Four side structures complete the contract:
   - [cur_*]: the bucket being drained, sorted by (prio, seq). Buckets
     are not seq-sorted on arrival — overflow pulls interleave — so the
     sort is load-bearing, not defensive.
   - [aux]: a {!Heap} for events scheduled *into the current tick or
     earlier* while it drains (a handler scheduling at delay 0 must
     interleave with the remaining same-instant events by prio; on
     prio ties [cur] wins because everything in it was scheduled
     earlier, so its seqs are strictly smaller).
   - [ovf]: a {!Heap} of (seq, payload) for events beyond the wheel's
     span (or past the integer-tick clamp), pulled back into the wheel
     as [base] enters their window. Overflow entries always sort after
     every wheel entry, so the heap never competes with the scan.
   - [dummy]: first payload ever seen; drained slots are repointed at
     it so the wheel retains no delivered event (the 1M-churn test
     bounds the footprint). *)

let wbits = 8
let wsize = 1 lsl wbits  (* 256 slots per level *)
let wmask = wsize - 1
let levels = 4
let span_bits = wbits * levels

(* Tick width in seconds. Events closer together than one tick are
   ordered by exact priority, then scheduling order, so it moves cost
   only, never delivery order. *)
let resolution = 1e-6

(* Ticks must stay well inside the OCaml int range: priorities mapping
   past this go straight to the overflow heap, ordered by the float
   priority itself, so correctness never depends on the clamp. *)
let tick_clamp_f = 4.0e18

type 'a bucket = {
  mutable b_prios : float array;  (* flat storage: unboxed floats *)
  mutable b_seqs : int array;
  mutable b_data : 'a array;
  mutable b_len : int;
}

type 'a t = {
  mutable base : int;              (* current tick; monotone *)
  buckets : 'a bucket array;       (* levels * wsize, row-major *)
  (* the current tick's drain, sorted by (prio, seq) *)
  mutable cur_prios : float array;
  mutable cur_seqs : int array;
  mutable cur_data : 'a array;
  mutable cur_len : int;
  mutable cur_pos : int;
  aux : 'a Heap.t;                 (* same-tick late arrivals *)
  ovf : (int * 'a) Heap.t;         (* beyond-span: (seq, payload) *)
  mutable count : int;             (* undelivered events, all stores *)
  mutable next_seq : int;
  mutable dummy : 'a option;       (* slot-clearing filler *)
}

let create () =
  {
    base = 0;
    buckets =
      Array.init (levels * wsize) (fun _ ->
          { b_prios = [||]; b_seqs = [||]; b_data = [||]; b_len = 0 });
    cur_prios = [||];
    cur_seqs = [||];
    cur_data = [||];
    cur_len = 0;
    cur_pos = 0;
    aux = Heap.create ();
    ovf = Heap.create ();
    count = 0;
    next_seq = 0;
    dummy = None;
  }

let length t = t.count
let is_empty t = t.count = 0

(* --- buckets ----------------------------------------------------------- *)

let bucket_grow b fill =
  let cap = Array.length b.b_data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let fresh_p = Array.make ncap 0.0 in
  Array.blit b.b_prios 0 fresh_p 0 b.b_len;
  b.b_prios <- fresh_p;
  let fresh_s = Array.make ncap 0 in
  Array.blit b.b_seqs 0 fresh_s 0 b.b_len;
  b.b_seqs <- fresh_s;
  let fresh_d = Array.make ncap fill in
  Array.blit b.b_data 0 fresh_d 0 b.b_len;
  b.b_data <- fresh_d

(* A drained bucket above this capacity returns to it. High-level slots
   are revisited only once per wrap of their level (2^16 ticks for
   level 1, 2^24 for level 2, ...), and every boundary crossing parks
   a burst in a *fresh* slot — without the shrink each such slot would
   pin its high-water capacity forever and the retained footprint would
   creep with simulated time instead of tracking the pending population
   (the churn test's flatness assertion catches exactly this). Buckets
   at or below the cap keep their arrays, so the dense level-0 path
   stays allocation-free in steady state; the shrink itself is one
   small allocation per oversized drain, amortised across the events
   that grew the bucket. *)
let keep_cap = 32

let bucket_shrink b fill =
  if Array.length b.b_data > keep_cap then begin
    b.b_prios <- Array.make keep_cap 0.0;
    b.b_seqs <- Array.make keep_cap 0;
    b.b_data <- Array.make keep_cap fill
  end

let bucket_push b prio seq payload =
  if b.b_len = Array.length b.b_data then bucket_grow b payload;
  b.b_prios.(b.b_len) <- prio;
  b.b_seqs.(b.b_len) <- seq;
  b.b_data.(b.b_len) <- payload;
  b.b_len <- b.b_len + 1

(* --- placement --------------------------------------------------------- *)

let tick_of prio = int_of_float (prio /. resolution)

(* Insert an in-window event ([tick]'s top window equals [base]'s) at
   the smallest level whose upper bits match base — the window-aligned
   rule. [tick >= base] is the caller's obligation. *)
let place t ~tick ~prio ~seq payload =
  let l = ref 0 in
  while tick lsr (wbits * (!l + 1)) <> t.base lsr (wbits * (!l + 1)) do
    incr l
  done;
  let slot = (tick lsr (wbits * !l)) land wmask in
  bucket_push t.buckets.((!l * wsize) + slot) prio seq payload

let schedule t prio payload =
  if prio < 0.0 then invalid_arg "Wheel.schedule: negative priority";
  (* ncc-lint: allow R17 — one Some per wheel lifetime: the first event seeds the slot-clearing dummy *)
  (match t.dummy with None -> t.dummy <- Some payload | Some _ -> ());
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.count <- t.count + 1;
  let q = prio /. resolution in
  if q >= tick_clamp_f then
    (* ncc-lint: allow R17, R18 — far-future outlier: one pair on the rare overflow path; the in-window path allocates nothing *)
    Heap.push t.ovf prio (seq, payload)
  else begin
    let tick = int_of_float q in
    if tick <= t.base then
      (* current tick (or an already-entered one): interleave with the
         draining bucket through the aux heap *)
      Heap.push t.aux prio payload
    else if tick lsr span_bits <> t.base lsr span_bits then
      (* ncc-lint: allow R17, R18 — beyond the wheel span: one pair per far-future event; pulled back in bulk at window entry *)
      Heap.push t.ovf prio (seq, payload)
    else place t ~tick ~prio ~seq payload
  end

(* --- the (prio, seq) sort for the current bucket ----------------------- *)

let cur_before t i j =
  t.cur_prios.(i) < t.cur_prios.(j)
  (* ncc-lint: allow R8 — exact float tie falls through to the seq tie-breaker, same contract as Heap.before *)
  || (t.cur_prios.(i) = t.cur_prios.(j) && t.cur_seqs.(i) < t.cur_seqs.(j))

let cur_swap t i j =
  let p = t.cur_prios.(i) in
  t.cur_prios.(i) <- t.cur_prios.(j);
  t.cur_prios.(j) <- p;
  let s = t.cur_seqs.(i) in
  t.cur_seqs.(i) <- t.cur_seqs.(j);
  t.cur_seqs.(j) <- s;
  let d = t.cur_data.(i) in
  t.cur_data.(i) <- t.cur_data.(j);
  t.cur_data.(j) <- d

(* In-place quicksort over the parallel cur arrays, insertion sort on
   small ranges; recurses on the smaller partition so stack depth is
   O(log n) even on adversarial buckets. *)
let rec cur_sort t lo hi =
  if hi - lo > 0 then begin
    if hi - lo < 12 then
      for i = lo + 1 to hi do
        let j = ref i in
        while !j > lo && cur_before t !j (!j - 1) do
          cur_swap t !j (!j - 1);
          decr j
        done
      done
    else begin
      (* median-of-three pivot, moved to [hi] *)
      let mid = lo + ((hi - lo) / 2) in
      if cur_before t mid lo then cur_swap t mid lo;
      if cur_before t hi lo then cur_swap t hi lo;
      if cur_before t hi mid then cur_swap t hi mid;
      cur_swap t mid hi;
      let p = ref lo in
      for i = lo to hi - 1 do
        if cur_before t i hi then begin
          cur_swap t i !p;
          incr p
        end
      done;
      cur_swap t !p hi;
      if !p - lo < hi - !p then begin
        cur_sort t lo (!p - 1);
        cur_sort t (!p + 1) hi
      end
      else begin
        cur_sort t (!p + 1) hi;
        cur_sort t lo (!p - 1)
      end
    end
  end

(* --- advance: find the next nonempty tick ------------------------------ *)

let load_cur t b =
  if Array.length t.cur_data < b.b_len then begin
    let ncap =
      let c = ref (max 8 (Array.length t.cur_data)) in
      while !c < b.b_len do
        c := !c * 2
      done;
      !c
    in
    t.cur_prios <- Array.make ncap 0.0;
    t.cur_seqs <- Array.make ncap 0;
    t.cur_data <-
      Array.make ncap (match t.dummy with Some d -> d | None -> assert false)
  end;
  Array.blit b.b_prios 0 t.cur_prios 0 b.b_len;
  Array.blit b.b_seqs 0 t.cur_seqs 0 b.b_len;
  Array.blit b.b_data 0 t.cur_data 0 b.b_len;
  t.cur_len <- b.b_len;
  t.cur_pos <- 0;
  (* release the bucket's references to the moved events *)
  (match t.dummy with
   | Some d ->
     for k = 0 to b.b_len - 1 do
       b.b_data.(k) <- d
     done;
     bucket_shrink b d
   | None -> ());
  b.b_len <- 0;
  cur_sort t 0 (t.cur_len - 1)

(* Re-place a higher-level bucket's entries after base entered its
   window; they land at strictly lower levels (or the now-current
   level-0 slot). *)
let cascade t b =
  (match t.dummy with
   | Some d ->
     for k = 0 to b.b_len - 1 do
       let prio = b.b_prios.(k) and seq = b.b_seqs.(k) in
       let payload = b.b_data.(k) in
       b.b_data.(k) <- d;
       place t ~tick:(tick_of prio) ~prio ~seq payload
     done;
     bucket_shrink b d
   | None -> assert false (* nonempty bucket implies a seeded dummy *));
  b.b_len <- 0

let wheel_len t =
  t.count - (t.cur_len - t.cur_pos) - Heap.length t.aux - Heap.length t.ovf

(* Move overflow entries whose tick entered base's top-level window
   back into the wheel (their original seqs travel with them, so the
   bucket sort restores global FIFO order among equal priorities). *)
let rec pull_overflow t =
  if not (Heap.is_empty t.ovf) then begin
    let prio = Heap.top_prio t.ovf in
    let q = prio /. resolution in
    if q < tick_clamp_f then begin
      let tick = int_of_float q in
      if tick lsr span_bits = t.base lsr span_bits then begin
        let seq, payload = Heap.pop_min t.ovf in
        place t ~tick:(max tick t.base) ~prio ~seq payload;
        pull_overflow t
      end
    end
  end

(* Scan level [l] forward from base's slot; level-0 hits load [cur],
   higher-level hits cascade and rescan from level 0. The forward-only
   scan is complete because placement is window-aligned (see the
   header comment). The slot walk is a top-level function over [t]: a
   local one capturing [t] would be a closure block per scan (R17). *)
let rec scan t = scan_level t 0

and scan_level t l =
  if l >= levels then false else scan_slot t l ((t.base lsr (wbits * l)) land wmask)

and scan_slot t l j =
  if j >= wsize then scan_level t (l + 1)
  else begin
    let b = t.buckets.((l * wsize) + j) in
    if b.b_len = 0 then scan_slot t l (j + 1)
    else if l = 0 then begin
      t.base <- t.base land lnot wmask lor j;
      load_cur t b;
      true
    end
    else begin
      let off = wbits * l in
      let upper = t.base lsr (off + wbits) in
      t.base <- ((upper lsl wbits) lor j) lsl off;
      cascade t b;
      scan t
    end
  end

(* Make the next deliverable event visible in [cur] or [aux]; false
   when the wheel is completely empty. *)
let advance t =
  if t.count = 0 then false
  else if wheel_len t > 0 then scan t
  else begin
    (* everything pending lives in the overflow heap *)
    let q = Heap.top_prio t.ovf /. resolution in
    if q >= tick_clamp_f then begin
      (* past the integer-tick clamp: every remaining entry is — drain
         them through aux, whose heap order preserves (prio, seq) *)
      while not (Heap.is_empty t.ovf) do
        let prio = Heap.top_prio t.ovf in
        let _seq, payload = Heap.pop_min t.ovf in
        Heap.push t.aux prio payload
      done;
      true
    end
    else begin
      let tick = int_of_float q in
      if tick > t.base then t.base <- tick;
      pull_overflow t;
      scan t
    end
  end

(* --- the delivery interface (mirrors Heap's drain triple) -------------- *)

(* 0 = empty, 1 = cur head, 2 = aux top. Prio ties go to cur: its
   entries were all scheduled before anything in aux. *)
let rec next_src t =
  if t.cur_pos < t.cur_len then begin
    if
      (not (Heap.is_empty t.aux))
      && Heap.top_prio t.aux < t.cur_prios.(t.cur_pos)
    then 2
    else 1
  end
  else if not (Heap.is_empty t.aux) then 2
  else if advance t then next_src t
  else 0

let top_prio t =
  match next_src t with
  | 1 -> t.cur_prios.(t.cur_pos)
  | 2 -> Heap.top_prio t.aux
  | _ -> invalid_arg "Wheel.top_prio: empty wheel"

let pop_min t =
  match next_src t with
  | 1 ->
    let i = t.cur_pos in
    let payload = t.cur_data.(i) in
    (match t.dummy with Some d -> t.cur_data.(i) <- d | None -> ());
    t.cur_pos <- i + 1;
    t.count <- t.count - 1;
    payload
  | 2 ->
    t.count <- t.count - 1;
    Heap.pop_min t.aux
  | _ -> invalid_arg "Wheel.pop_min: empty wheel"

(* Approximate live footprint in words (capacities, not lengths) — the
   1M-churn test bounds this to show the wheel does not accumulate
   garbage capacity under steady-state scheduling. *)
let footprint_words t =
  let bucket_words b =
    (* float array: 1 word/element; int + payload arrays likewise *)
    (3 * Array.length b.b_data) + 16
  in
  let acc = ref ((3 * Array.length t.cur_data) + 64) in
  Array.iter (fun b -> acc := !acc + bucket_words b) t.buckets;
  acc := !acc + (3 * Heap.length t.aux) + (4 * Heap.length t.ovf);
  !acc
