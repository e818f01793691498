(* A node's physical clock: true simulated time plus a constant offset
   and a linear drift. NCC does not require synchronized clocks, so the
   tests and experiments deliberately run with skewed clocks to exercise
   the timestamp machinery (asynchrony-aware timestamps, §4.3). *)

type t = { offset : float; drift : float }

let perfect = { offset = 0.0; drift = 0.0 }

let make ~offset ~drift = { offset; drift }

(* Draw a clock with offset uniform in [-max_offset, max_offset] and
   drift uniform in [-max_drift, max_drift] (drift in s/s, e.g. 1e-5 =
   10 microseconds per second). *)
let random rng ~max_offset ~max_drift =
  (* ncc-lint: allow R8 — degenerate-config guard on a configured bound, not a time value *)
  let sym r bound = if bound = 0.0 then 0.0 else Rng.float r (2.0 *. bound) -. bound in
  { offset = sym rng max_offset; drift = sym rng max_drift }

let[@ncc.hot] read clock ~now = now +. clock.offset +. (clock.drift *. now)

(* Integer nanoseconds, the unit of [Kernel.Ts] physical components. *)
let[@ncc.hot] read_ns clock ~now = int_of_float (read clock ~now *. 1e9)

(* The same reading off a one-element clock cell ({!Engine.local_ns}):
   the time crosses no call, so it is never boxed. *)
let[@ncc.hot] read_ns_cell clock cell =
  let now = cell.(0) in
  int_of_float (read clock ~now *. 1e9)
