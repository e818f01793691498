(* Timestamps combine a physical time (integer nanoseconds of the issuing
   node's local clock) with the client identifier, making them unique and
   totally ordered (§4.1 of the paper: ties on the physical component are
   broken by client id).

   The pair is packed into one immediate int, time in the high bits and
   the client id in the low [cid_bits], so the int order is the
   lexicographic (time, cid) order and a timestamp is never boxed. *)

type t = int

let cid_bits = 20
let max_cid = (1 lsl cid_bits) - 1
let max_time = max_int asr cid_bits
let min_time = min_int asr cid_bits

let make ~time ~cid =
  if cid < 0 || cid > max_cid || time < min_time || time > max_time then
    invalid_arg "Ts.make: time or client id outside the packed range";
  (time lsl cid_bits) lor cid

let time t = t asr cid_bits
let cid t = t land max_cid

let zero = 0
let infinity = max_int

let compare = Int.compare
let equal = Int.equal
let max (a : t) b = if a >= b then a else b
let min (a : t) b = if a <= b then a else b

let ( < ) (a : t) b = a < b
let ( <= ) (a : t) b = a <= b
let ( > ) (a : t) b = a > b
let ( >= ) (a : t) b = a >= b

(* The smallest timestamp strictly greater than [t] with the same client
   id: used by the server-side refinement rule t_w = max(t, curr.t_r + 1)
   (Alg 4.2 line 10), where "+ 1" bumps the physical component. *)
let succ t = t + (1 lsl cid_bits)

let pp ppf t = Fmt.pf ppf "%d.%d" (time t) (cid t)
let to_string t = Fmt.str "%a" pp t
