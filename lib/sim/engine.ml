(* The discrete-event simulation core: a virtual clock and an ordered
   queue of pending events (thunks). Time is in seconds (float). Events
   scheduled for the same instant run in scheduling order, so a run is a
   pure function of the seed and the initial events.

   The queue picks itself: a run starts on the binary heap and, the
   first time [wheel_at] events are pending, moves them in delivery
   order into the timing wheel for good. Both deliver in exactly
   (priority, scheduling-order) order, so the switch never changes a
   run's result — the engine-vs-heap identity test pins this.

   The clock lives in a one-element [float array] rather than a mutable
   record field: in a mixed record every write to a float field boxes
   the float (R16), and the loop writes the clock once per event. A
   flat float array stores it unboxed. *)

type queue = Qh of (unit -> unit) Heap.t | Qw of (unit -> unit) Wheel.t

type t = {
  now : float array;  (* single cell: unboxed current time *)
  mutable q : queue;
  mutable stopped : bool;
  mutable executed : int;
}

(* Pending high-water marks run from tens to a few hundred on 8-64-node
   runs (heap cheaper) to ~10k with 10k clients (wheel cheaper). *)
let wheel_at = 4096

let create () = { now = [| 0.0 |]; q = Qh (Heap.create ()); stopped = false; executed = 0 }

let now t = t.now.(0)

let executed_events t = t.executed

let pending t = match t.q with Qh h -> Heap.length h | Qw w -> Wheel.length w

(* The wheel breaks priority ties by scheduling order, so scheduling
   the heap's pops in order keeps every pending event's place. *)
let to_wheel t h =
  let w = Wheel.create () in
  while not (Heap.is_empty h) do
    let prio = Heap.top_prio h in
    Wheel.schedule w prio (Heap.pop_min h)
  done;
  t.q <- Qw w

let push t prio f =
  match t.q with
  | Qh h ->
    Heap.push h prio f;
    if Heap.length h >= wheel_at then to_wheel t h
  | Qw w -> Wheel.schedule w prio f

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.now.(0) +. delay) f

let schedule_at t ~time f =
  if time < t.now.(0) then invalid_arg "Engine.schedule_at: time in the past";
  push t time f

let stop t = t.stopped <- true

(* Run until the queue drains, [until] passes, or [stop] is called. The
   event whose time exceeds [until] is left in the queue. The drain
   uses is_empty/top_prio/pop_min, which allocate nothing per event;
   the old peek_prio/pop pair built a float option plus a (float, fn)
   tuple for every event delivered (R16/R17). *)
let run ?until t =
  let horizon = match until with None -> Float.infinity | Some u -> u in
  let rec loop () =
    if t.stopped || pending t = 0 then ()
    else begin
      let time = match t.q with Qh h -> Heap.top_prio h | Qw w -> Wheel.top_prio w in
      if time > horizon then t.now.(0) <- horizon
      else begin
        let f = match t.q with Qh h -> Heap.pop_min h | Qw w -> Wheel.pop_min w in
        t.now.(0) <- time;
        t.executed <- t.executed + 1;
        f ();
        loop ()
      end
    end
  in
  loop ()
