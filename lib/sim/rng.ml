(* Deterministic pseudo-randomness for the simulator.

   Every consumer gets its own stream [split] from a parent, so adding a
   new consumer (or reordering draws inside one consumer) does not
   perturb the draws seen by others — a property plain shared
   [Random.State] does not have and which keeps experiments reproducible
   as the code evolves. *)

type t = { state : Random.State.t }

let create seed = { state = Random.State.make [| seed; 0x9e3779b9 |] }

let split t =
  (* Derive a child seed from the parent stream. *)
  let s1 = Random.State.bits t.state in
  let s2 = Random.State.bits t.state in
  { state = Random.State.make [| s1; s2; 0x85ebca6b |] }

let int t bound = Random.State.int t.state bound

let float t bound = Random.State.float t.state bound

let bool t = Random.State.bool t.state

(* Bernoulli draw with probability [p]. *)
let flip t p = Random.State.float t.state 1.0 < p

(* Uniform integer in [lo, hi] inclusive. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range";
  lo + Random.State.int t.state (hi - lo + 1)

(* Exponential with mean [mean] (inter-arrival times of a Poisson
   process). *)
let exponential t ~mean =
  let u = 1.0 -. Random.State.float t.state 1.0 in
  -. mean *. log u

(* [exponential] written into [a.(i)]: a float returned across a
   module is boxed, a write into a flat float array is not. *)
let exponential_into t ~mean a i = a.(i) <- -.mean *. log (1.0 -. Random.State.float t.state 1.0)

(* Truncated normal via Box-Muller, clamped to [0, +inf) which is all we
   need for sizes and latencies. *)
let gaussian t ~mean ~stddev =
  let u1 = 1.0 -. Random.State.float t.state 1.0 in
  let u2 = Random.State.float t.state 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  Float.max 0.0 (mean +. (stddev *. z))

(* Zipfian sampler over [0, n) with parameter [theta], using the
   classical rejection-free method of Gray et al. (as in YCSB): constant
   time per draw after O(n)-free setup (the zeta value is approximated
   by the closed form for large n, which is accurate enough for key
   popularity distributions). *)
type zipf = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
}

let zeta ~n ~theta =
  (* Exact for small n; Euler-Maclaurin approximation for large n keeps
     setup O(1) even with millions of keys. *)
  if n <= 10_000 then (
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !acc)
  else
    let nf = float_of_int n in
    let z10k =
      let acc = ref 0.0 in
      for i = 1 to 10_000 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
      done;
      !acc
    in
    (* integral tail from 10k to n of x^-theta dx *)
    z10k
    +. ((Float.pow nf (1.0 -. theta) -. Float.pow 10_000.0 (1.0 -. theta))
        /. (1.0 -. theta))

let zipf_create ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf_create";
  let zetan = zeta ~n ~theta in
  let zeta2 = zeta ~n:2 ~theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta }

let zipf_draw t z =
  let u = Random.State.float t.state 1.0 in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 z.theta then 1
  else
    let v =
      float_of_int z.n
      *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha
    in
    let i = int_of_float v in
    if i >= z.n then z.n - 1 else if i < 0 then 0 else i
