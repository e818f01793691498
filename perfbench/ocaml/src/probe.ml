(* Host-time accounting for the traced run. Each wrapped seam calls
   [enter] before and [leave] after the wrapped call; the interval
   between two consecutive clock reads is charged to the layer on top
   of the stack (its self time), or to the idle account when no
   wrapped call is open. Nested calls are therefore never double
   counted, and the layer self times plus the idle time add up exactly
   to the wall time between [start] and [stop].

   GC pauses land in whichever layer was on top when the runtime
   paused; [Gc_events] measures them separately, from the runtime's
   own event ring. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Keeps the monotonic-clock unit, and with it the C stub, linked. *)
let _ = Monotonic_clock.now

let now_ns () = Int64.to_int (clock_ns ())

type layer =
  | Submit
  | Server_handle
  | Client_handle
  | Timer
  | Cancel
  | Send
  | Net_timer
  | Report
  | Gen

let layers =
  [ Submit; Server_handle; Client_handle; Timer; Cancel; Send; Net_timer; Report; Gen ]

let index = function
  | Submit -> 0
  | Server_handle -> 1
  | Client_handle -> 2
  | Timer -> 3
  | Cancel -> 4
  | Send -> 5
  | Net_timer -> 6
  | Report -> 7
  | Gen -> 8

let name = function
  | Submit -> "protocol.submit"
  | Server_handle -> "protocol.server_handle"
  | Client_handle -> "protocol.client_handle"
  | Timer -> "protocol.timer"
  | Cancel -> "protocol.cancel"
  | Send -> "net.send"
  | Net_timer -> "net.timer"
  | Report -> "runner.report"
  | Gen -> "workload.gen"

let n_layers = List.length layers

(* --- GC pauses from the runtime's event ring --------------------------- *)

module Gc_events = struct
  let enabled = ref false
  let cursor = ref None
  let minor_ns = ref 0
  let major_ns = ref 0
  let lost = ref 0
  let minor_begin = ref (-1)
  let major_begin = ref (-1)
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    let runtime_begin _ t = function
      | Runtime_events.EV_MINOR -> minor_begin := ts t
      | Runtime_events.EV_MAJOR_SLICE -> major_begin := ts t
      | _ -> ()
    in
    let runtime_end _ t = function
      | Runtime_events.EV_MINOR when !minor_begin >= 0 ->
        minor_ns := !minor_ns + (ts t - !minor_begin);
        minor_begin := -1
      | Runtime_events.EV_MAJOR_SLICE when !major_begin >= 0 ->
        major_ns := !major_ns + (ts t - !major_begin);
        major_begin := -1
      | _ -> ()
    in
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  (* Start the runtime's event ring (once per process) and drop what
     it recorded so far. The ring lives in a [<pid>.events] file under
     OCAML_RUNTIME_EVENTS_DIR (default: the current directory), which
     the runtime removes at exit. *)
  let reset () =
    if !enabled && Option.is_none !cursor then begin
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
    end;
    poll ();
    minor_ns := 0;
    major_ns := 0;
    lost := 0;
    minor_begin := -1;
    major_begin := -1
end

(* --- self-time stack --------------------------------------------------- *)

type snapshot = {
  self_ns : int array;  (* per layer, indexed by [index] *)
  calls : int array;
  idle_ns : int;
      (* wall time with no wrapped call open, including the probe's
         own reads of the GC event ring *)
  total_ns : int;  (* wall time from [start] to [stop] *)
  gc_minor_ns : int;
  gc_major_ns : int;
  gc_lost_events : int;
  pending_hw : int;
      (* high-water of the engine's event queue, read at every wrapped
         call's entry and exit; events the runner schedules outside a
         wrapped call (next arrival, request timeout) show at the next
         read, after at most one pop *)
}

let self_ns = Array.make n_layers 0
let calls = Array.make n_layers 0
let stack = Array.make 256 0
let depth = ref 0
let last = ref 0
let idle_ns = ref 0
let t_start = ref 0
let until_poll = ref 0

(* A minor collection every few hundred wrapped calls writes well
   under the ring's capacity, so polling this often loses no event. *)
let poll_every = 256

let engine : Sim.Engine.t option ref = ref None
let pending_hw = ref 0
let attach_engine e = if Option.is_none !engine then engine := Some e

let sample_pending () =
  match !engine with
  | Some e ->
    let p = Sim.Engine.pending e in
    if p > !pending_hw then pending_hw := p
  | None -> ()

let charge t =
  let d = t - !last in
  (if !depth = 0 then idle_ns := !idle_ns + d
   else
     let top = stack.(!depth - 1) in
     self_ns.(top) <- self_ns.(top) + d);
  last := t

let enter l =
  charge (now_ns ());
  sample_pending ();
  let i = index l in
  stack.(!depth) <- i;
  incr depth;
  calls.(i) <- calls.(i) + 1

let leave () =
  charge (now_ns ());
  sample_pending ();
  decr depth;
  decr until_poll;
  if !until_poll <= 0 then begin
    until_poll := poll_every;
    Gc_events.poll ();
    let t = now_ns () in
    idle_ns := !idle_ns + (t - !last);
    last := t
  end

let start ~gc_events =
  Gc_events.enabled := gc_events;
  Gc_events.reset ();
  Array.fill self_ns 0 n_layers 0;
  Array.fill calls 0 n_layers 0;
  depth := 0;
  idle_ns := 0;
  until_poll := poll_every;
  engine := None;
  pending_hw := 0;
  let t = now_ns () in
  t_start := t;
  last := t

let stop () =
  charge (now_ns ());
  if !depth <> 0 then failwith "Probe.stop: unbalanced enter/leave";
  let total_ns = !last - !t_start in
  sample_pending ();
  Gc_events.poll ();
  {
    self_ns = Array.copy self_ns;
    calls = Array.copy calls;
    idle_ns = !idle_ns;
    total_ns;
    gc_minor_ns = !Gc_events.minor_ns;
    gc_major_ns = !Gc_events.major_ns;
    gc_lost_events = !Gc_events.lost;
    pending_hw = !pending_hw;
  }
