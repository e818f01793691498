(* The discrete-event simulation core: a virtual clock and an ordered
   queue of pending events (thunks). Time is in seconds (float). Events
   scheduled for the same instant run in scheduling order, so a run is a
   pure function of the seed and the initial events. The queue is a
   {!Wheel}, which delivers in exactly (priority, scheduling-order)
   order — the engine-vs-heap identity test pins this against a plain
   {!Heap} loop.

   The clock lives in a one-element [float array] rather than a mutable
   record field: in a mixed record every write to a float field boxes
   the float (R16), and the loop writes the clock once per event. A
   flat float array stores it unboxed. *)

type t = {
  now : float array;  (* single cell: unboxed current time *)
  q : (unit -> unit) Wheel.t;
  mutable stopped : bool;
  mutable executed : int;
}

let create () = { now = [| 0.0 |]; q = Wheel.create (); stopped = false; executed = 0 }

let now t = t.now.(0)

let executed_events t = t.executed

let pending t = Wheel.length t.q

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Wheel.schedule t.q (t.now.(0) +. delay) f

let schedule_at t ~time f =
  if time < t.now.(0) then invalid_arg "Engine.schedule_at: time in the past";
  Wheel.schedule t.q time f

let stop t = t.stopped <- true

(* Run until the queue drains, [until] passes, or [stop] is called. The
   event whose time exceeds [until] is left in the queue. The drain
   uses is_empty/top_prio/pop_min, which allocate nothing per event;
   the old peek_prio/pop pair built a float option plus a (float, fn)
   tuple for every event delivered (R16/R17). *)
let run ?until t =
  let horizon = match until with None -> Float.infinity | Some u -> u in
  (* ncc-lint: allow R17 — one closure per run, not per event: the loop it builds drains the whole queue *)
  let rec loop () =
    if t.stopped || Wheel.is_empty t.q then ()
    else begin
      let time = Wheel.top_prio t.q in
      if time > horizon then t.now.(0) <- horizon
      else begin
        let f = Wheel.pop_min t.q in
        t.now.(0) <- time;
        t.executed <- t.executed + 1;
        f ();
        loop ()
      end
    end
  in
  loop ()
