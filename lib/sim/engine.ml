(* The discrete-event simulation core: a virtual clock and an ordered
   queue of pending events (thunks). Time is in seconds (float). Events
   come out in exactly (time, scheduling-order) order, so a run is a pure
   function of the seed and the initial events; the identity tests pin
   this against a plain priority queue keyed by (time, scheduling
   order).

   One module owns the clock, the queue and the drain loop because under
   dune's dev profile ([-opaque]) no call across modules is inlined, so a
   float passed to or returned from another module is boxed (2 words).
   [schedule] writes [now + delay] straight into the node arena's float
   array and [run] moves it from there into the clock, a one-element
   [float array] (a float field of a mixed record boxes on every write,
   R16): no time crosses a call per event.

   The queue is a single-level timing wheel of [slots] one-tick slots, a
   ring over the ticks [base, base + slots). Every event is a node of one
   arena — flat [prios]/[seqs]/[data]/[next] arrays threaded by [next],
   with a free list — and sits in exactly one place:
   - [run]: the events at ticks <= [base], sorted by (prio, seq); its
     head is delivered next;
   - a slot chain: the events of one tick in (base, base + slots),
     unsorted;
   - [ovf]: a binary min-heap in (prio, seq) order of the node ids past
     the window or past the integer-tick clamp.
   Tick order is time order. When the run empties, base moves to the
   next nonempty slot (or, with every slot empty, to the overflow's first
   tick), that chain is sorted into the run, and the overflow entries
   that entered the window move to their slots. Past-clamp events have no
   tick: the overflow heap delivers them once nothing precedes them. *)

(* 4,096 slots: a wider ring makes the per-engine slot array a visible
   set-up cost on sparse runs; a narrower one sends more of a 10k-client
   run's timers through the overflow heap. *)
let slot_bits = 12
let slots = 1 lsl slot_bits
let mask = slots - 1

(* Tick width in seconds. Events within one tick are ordered by exact
   time, then scheduling order: it moves cost only, never order. *)
let resolution = 1e-6

(* Ticks stay well inside the int range: times past this stay in the
   overflow heap, ordered by the float time itself. *)
let tick_clamp_f = 4.0e18

type t = {
  now : float array;            (* single cell: unboxed current time *)
  mutable prios : float array;  (* node arena; flat storage: unboxed floats *)
  mutable seqs : int array;
  mutable data : (unit -> unit) array;
  mutable next : int array;     (* chain, run or free-list link; -1 ends *)
  mutable free : int;           (* free-list head *)
  heads : int array;            (* slot chain heads, -1 = empty *)
  mutable base : int;           (* current tick; monotone *)
  mutable run : int;            (* sorted events at ticks <= base *)
  mutable in_slots : int;       (* events on slot chains *)
  mutable ovf : int array;      (* overflow heap of node ids *)
  mutable n_ovf : int;
  mutable count : int;          (* undelivered events, all places *)
  mutable next_seq : int;
  mutable stopped : bool;
  mutable executed : int;
}

let create () =
  { now = [| 0.0 |]; prios = [||]; seqs = [||]; data = [||]; next = [||]; free = -1;
    heads = Array.make slots (-1); base = 0; run = -1; in_slots = 0; ovf = [||];
    n_ovf = 0; count = 0; next_seq = 0; stopped = false; executed = 0 }

let now t = t.now.(0)

(* The clock copied into a float array's cell: both sides are flat
   floats, so unlike [now] the read allocates no box. *)
let[@ncc.hot] stamp t a i = a.(i) <- t.now.(0)

let[@ncc.hot] local_ns t clock = Clock.read_ns_cell clock t.now

let executed_events t = t.executed

let pending t = t.count

(* Filler for freed nodes' payloads, so the arena retains no delivered
   event. *)
let nop () = ()

(* --- the node arena ---------------------------------------------------- *)

(* A copy of [a] widened to [n] cells, the new ones [fill]. *)
let widen a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the arena and thread the new nodes onto the (empty) free list. *)
let grow t =
  let cap = Array.length t.next in
  let ncap = if cap = 0 then 64 else cap * 2 in
  t.prios <- widen t.prios ncap 0.0;
  t.seqs <- widen t.seqs ncap 0;
  t.data <- widen t.data ncap nop;
  t.next <- widen t.next ncap (-1);
  for i = cap to ncap - 2 do
    t.next.(i) <- i + 1
  done;
  t.free <- cap

let before t i j =
  t.prios.(i) < t.prios.(j)
  (* ncc-lint: allow R8 — an exact float tie falls through to the seq tie-breaker: equal times run in scheduling order *)
  || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

(* --- the overflow heap ------------------------------------------------- *)

(* Node ids keyed by their arena (prio, seq), so a push carries no float
   across a call. The sifts are top-level functions taking the engine: a
   local [let rec] capturing it would build a closure per push (R17). *)
let ovf_swap t a b =
  let x = t.ovf.(a) in
  t.ovf.(a) <- t.ovf.(b);
  t.ovf.(b) <- x

let rec sift_up t k =
  if k > 0 then begin
    let p = (k - 1) / 2 in
    if before t t.ovf.(k) t.ovf.(p) then begin
      ovf_swap t k p;
      sift_up t p
    end
  end

let rec sift_down t k =
  let l = (2 * k) + 1 and r = (2 * k) + 2 in
  let m = if l < t.n_ovf && before t t.ovf.(l) t.ovf.(k) then l else k in
  let m = if r < t.n_ovf && before t t.ovf.(r) t.ovf.(m) then r else m in
  if m <> k then begin
    ovf_swap t k m;
    sift_down t m
  end

let ovf_push t i =
  if t.n_ovf = Array.length t.ovf then t.ovf <- widen t.ovf (max 16 (2 * t.n_ovf)) (-1);
  t.ovf.(t.n_ovf) <- i;
  t.n_ovf <- t.n_ovf + 1;
  sift_up t (t.n_ovf - 1)

let ovf_pop t =
  let i = t.ovf.(0) in
  t.n_ovf <- t.n_ovf - 1;
  t.ovf.(0) <- t.ovf.(t.n_ovf);
  sift_down t 0;
  i

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

(* Claim a node for [f]; the caller writes its time into [prios]. *)
let alloc t f =
  if t.free < 0 then grow t;
  let i = t.free in
  t.free <- t.next.(i);
  t.seqs.(i) <- t.next_seq;
  t.data.(i) <- f;
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1;
  i

(* File node [i] by the time already in its [prios] cell. *)
let file t i =
  let q = t.prios.(i) /. resolution in
  if q >= tick_clamp_f || int_of_float q - t.base >= slots then ovf_push t i
  else place t (int_of_float q) i

(* [not (x >= y)] rather than [x < y]: NaN compares false either way,
   and a NaN time must be refused, not filed under [int_of_float nan]. *)
let[@ncc.hot] schedule t ~delay f =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative or NaN delay";
  let i = alloc t f in
  t.prios.(i) <- t.now.(0) +. delay;
  file t i

(* [schedule] with the delay read from [a.(i)], so no float crosses
   the call. *)
let[@ncc.hot] schedule_cell t a i f =
  if not (a.(i) >= 0.0) then invalid_arg "Engine.schedule: negative or NaN delay";
  let n = alloc t f in
  t.prios.(n) <- t.now.(0) +. a.(i);
  file t n

let[@ncc.hot] schedule_at t ~time f =
  if not (time >= t.now.(0)) then
    invalid_arg "Engine.schedule_at: time in the past or NaN";
  let i = alloc t f in
  t.prios.(i) <- time;
  file t i

let stop t = t.stopped <- true

(* --- advance: make the next event the run's head ----------------------- *)

(* Move the overflow entries whose ticks entered the window to their
   slots (or the run); past-clamp entries stay, behind everything. *)
let rec refill t =
  if t.n_ovf > 0 then begin
    let q = t.prios.(t.ovf.(0)) /. resolution in
    if q < tick_clamp_f then begin
      let tick = int_of_float q in
      if tick - t.base < slots then begin
        place t tick (ovf_pop t);
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
    let q = t.prios.(t.ovf.(0)) /. resolution in
    if q < tick_clamp_f then begin
      t.base <- int_of_float q;
      refill t
    end
  end

(* --- the drain loop ---------------------------------------------------- *)

(* Run until the queue drains, [until] passes, or [stop] is called. The
   event whose time exceeds [until] is left in the queue. Each step
   reads the next node's time from the arena and moves it into the
   clock cell: no float is returned or passed per event. *)
let[@ncc.hot] run ?until t =
  let horizon = match until with None -> Float.infinity | Some u -> u in
  (* ncc-lint: allow R17 — one closure per run, not per event: the loop it builds drains the whole queue *)
  let rec loop () =
    if t.stopped || t.count = 0 then ()
    else begin
      if t.run < 0 then advance t;
      (* an empty run now means only past-clamp events remain, which
         the overflow heap delivers in its own order *)
      let i = if t.run >= 0 then t.run else t.ovf.(0) in
      if t.prios.(i) > horizon then t.now.(0) <- horizon
      else begin
        if t.run >= 0 then t.run <- t.next.(i) else ignore (ovf_pop t);
        t.now.(0) <- t.prios.(i);
        let f = t.data.(i) in
        t.data.(i) <- nop;
        t.next.(i) <- t.free;
        t.free <- i;
        t.count <- t.count - 1;
        t.executed <- t.executed + 1;
        f ();
        loop ()
      end
    end
  in
  loop ()

(* Approximate live footprint in words (capacities, not lengths) — the
   1M-churn test bounds this to show the queue does not accumulate
   garbage capacity under steady-state scheduling. *)
let footprint_words t = (4 * Array.length t.next) + slots + Array.length t.ovf + 64
