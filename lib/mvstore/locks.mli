(** Per-server lock table for the lock-based baselines: shared and
    exclusive modes, re-entrant acquisition, sole-holder upgrade. A
    request never waits; a key's entry goes with its last holder. *)

open Kernel

type mode = Shared | Exclusive
type owner = { txn : int; ts : Ts.t }
type t

val create : unit -> t

(** Grant at once, or report the other holders, newest first. *)
val try_acquire :
  t -> Types.key -> owner:owner -> mode:mode -> [ `Granted | `Conflict of owner list ]

(** Drop [txn]'s hold on [key], if any. *)
val release : t -> Types.key -> txn:int -> unit
