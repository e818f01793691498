(* A single-level timing wheel specialised to the simulator's event
   queue, with the same delivery contract as {!Heap}: events come out
   in (priority, scheduling-sequence) order, so equal-instant events
   keep FIFO order and a run driven by the wheel is byte-identical to
   one driven by {!Heap} (the qcheck identity properties pin this).

   Layout: [slots] slots of one tick ([resolution] seconds) each, a
   ring over the window of ticks [base, base + slots), where [base] is
   the current tick. Every event lives in a node of one arena — flat
   [prios]/[seqs]/[data]/[next] arrays threaded by [next], with a free
   list — and sits in exactly one of three places:
   - [run]: the events at or before [base], a list kept sorted by
     (prio, seq); its head is the next event delivered;
   - a slot chain: the events at ticks in (base, base + slots), one
     unsorted chain per tick;
   - [ovf]: a {!Heap} of the node ids at ticks >= base + slots, or past
     the integer-tick clamp. It is pushed only by [schedule], in
     sequence order, so its own FIFO tie-break agrees with [seqs].
   Tick order is priority order, so the run precedes every slot and
   every slot precedes the overflow heap. When the run empties, base
   moves to the next nonempty slot (or, with every slot empty, to the
   overflow's first tick), the slot's chain is sorted into the run, and
   the overflow entries that entered the window move into their slots.
   Past-clamp events have no tick: they are delivered straight from
   the overflow heap once nothing precedes them. *)

(* 4,096 slots: a wider ring makes the per-engine slot array a visible
   set-up cost on sparse runs; a narrower one sends more of a
   10k-client run's timers through the overflow heap. *)
let slot_bits = 12
let slots = 1 lsl slot_bits
let mask = slots - 1

(* Tick width in seconds. Events closer together than one tick are
   ordered by exact priority, then scheduling order, so it moves cost
   only, never delivery order. *)
let resolution = 1e-6

(* Ticks must stay well inside the OCaml int range: priorities mapping
   past this stay in the overflow heap, ordered by the float priority
   itself, so correctness never depends on the clamp. *)
let tick_clamp_f = 4.0e18

type 'a t = {
  mutable prios : float array;  (* flat storage: unboxed floats *)
  mutable seqs : int array;
  mutable data : 'a array;
  mutable next : int array;     (* chain, run or free-list link; -1 ends *)
  mutable free : int;           (* free-list head *)
  heads : int array;            (* slot chain heads, -1 = empty *)
  mutable base : int;           (* current tick; monotone *)
  mutable run : int;            (* sorted events at ticks <= base *)
  mutable in_slots : int;       (* events on slot chains *)
  ovf : int Heap.t;             (* node ids beyond the window *)
  mutable count : int;          (* undelivered events, all places *)
  mutable next_seq : int;
  mutable dummy : 'a option;    (* filler for freed nodes' payloads *)
}

let create () =
  {
    prios = [||];
    seqs = [||];
    data = [||];
    next = [||];
    free = -1;
    heads = Array.make slots (-1);
    base = 0;
    run = -1;
    in_slots = 0;
    ovf = Heap.create ();
    count = 0;
    next_seq = 0;
    dummy = None;
  }

let length t = t.count
let is_empty t = t.count = 0

(* --- the node arena ---------------------------------------------------- *)

(* Double the arena and thread the new nodes onto the (empty) free list. *)
let grow t fill =
  let cap = Array.length t.next in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let fresh_p = Array.make ncap 0.0 in
  Array.blit t.prios 0 fresh_p 0 cap;
  t.prios <- fresh_p;
  let fresh_s = Array.make ncap 0 in
  Array.blit t.seqs 0 fresh_s 0 cap;
  t.seqs <- fresh_s;
  let fresh_d = Array.make ncap fill in
  Array.blit t.data 0 fresh_d 0 cap;
  t.data <- fresh_d;
  let fresh_n = Array.make ncap (-1) in
  Array.blit t.next 0 fresh_n 0 cap;
  for i = cap to ncap - 2 do
    fresh_n.(i) <- i + 1
  done;
  t.next <- fresh_n;
  t.free <- cap

(* Return a delivered node to the free list, dropping its payload so
   the wheel retains no delivered event. *)
let release t i =
  (match t.dummy with Some d -> t.data.(i) <- d | None -> ());
  t.next.(i) <- t.free;
  t.free <- i;
  t.count <- t.count - 1

let before t i j =
  t.prios.(i) < t.prios.(j)
  (* ncc-lint: allow R8 — exact float tie falls through to the seq tie-breaker, same contract as Heap.before *)
  || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

(* --- placement --------------------------------------------------------- *)

let rec insert_after t p i =
  let q = t.next.(p) in
  if q >= 0 && before t q i then insert_after t q i
  else begin
    t.next.(i) <- q;
    t.next.(p) <- i
  end

(* Insertion into the sorted run. A slot chain is pushed at its head, so
   a burst at one instant arrives here newest first and each insert
   stops at the run's head. *)
let insert_run t i =
  if t.run < 0 || before t i t.run then begin
    t.next.(i) <- t.run;
    t.run <- i
  end
  else insert_after t t.run i

(* Run or slot for an in-window tick. *)
let place t tick i =
  if tick <= t.base then insert_run t i
  else begin
    let j = tick land mask in
    t.next.(i) <- t.heads.(j);
    t.heads.(j) <- i;
    t.in_slots <- t.in_slots + 1
  end

let schedule t prio payload =
  if prio < 0.0 then invalid_arg "Wheel.schedule: negative priority";
  (* ncc-lint: allow R17 — one Some per wheel lifetime: the first event seeds the slot-clearing dummy *)
  (match t.dummy with None -> t.dummy <- Some payload | Some _ -> ());
  if t.free < 0 then grow t payload;
  let i = t.free in
  t.free <- t.next.(i);
  t.prios.(i) <- prio;
  t.seqs.(i) <- t.next_seq;
  t.data.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1;
  let q = prio /. resolution in
  if q >= tick_clamp_f || int_of_float q - t.base >= slots then Heap.push t.ovf prio i
  else place t (int_of_float q) i

(* --- advance: make the next event the run's head ----------------------- *)

(* Move the overflow entries whose ticks entered the window to their
   slots (or the run); past-clamp entries stay, behind everything. *)
let rec refill t =
  if not (Heap.is_empty t.ovf) then begin
    let q = t.prios.(Heap.top t.ovf) /. resolution in
    if q < tick_clamp_f then begin
      let tick = int_of_float q in
      if tick - t.base < slots then begin
        place t tick (Heap.pop_min t.ovf);
        refill t
      end
    end
  end

let rec sort_chain t i =
  if i >= 0 then begin
    let n = t.next.(i) in
    insert_run t i;
    t.in_slots <- t.in_slots - 1;
    sort_chain t n
  end

let rec next_used t tick =
  if t.heads.(tick land mask) >= 0 then tick else next_used t (tick + 1)

(* With the run empty: move base to the next nonempty tick and load it.
   Leaves the run empty only when every pending event is past the
   clamp. *)
let advance t =
  if t.in_slots > 0 then begin
    let tick = next_used t (t.base + 1) in
    let j = tick land mask in
    let chain = t.heads.(j) in
    t.heads.(j) <- -1;
    t.base <- tick;
    sort_chain t chain;
    refill t
  end
  else begin
    let q = t.prios.(Heap.top t.ovf) /. resolution in
    if q < tick_clamp_f then begin
      t.base <- int_of_float q;
      refill t
    end
  end

(* The node delivered next, or -1 when only past-clamp events remain,
   which the overflow heap then delivers in its own order. *)
let head t =
  if t.run < 0 && t.count > 0 then advance t;
  t.run

(* --- the delivery interface (mirrors Heap's drain triple) -------------- *)

let top_prio t =
  let i = head t in
  if i >= 0 then t.prios.(i)
  else if t.count > 0 then t.prios.(Heap.top t.ovf)
  else invalid_arg "Wheel.top_prio: empty wheel"

let pop_min t =
  let i = head t in
  let i =
    if i >= 0 then begin
      t.run <- t.next.(i);
      i
    end
    else if t.count > 0 then Heap.pop_min t.ovf
    else invalid_arg "Wheel.pop_min: empty wheel"
  in
  let payload = t.data.(i) in
  release t i;
  payload

(* Approximate live footprint in words (capacities, not lengths) — the
   1M-churn test bounds this to show the wheel does not accumulate
   garbage capacity under steady-state scheduling. *)
let footprint_words t = (4 * Array.length t.next) + slots + (3 * Heap.length t.ovf) + 64
