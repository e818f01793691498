(** Global, off-by-default event tracer with a fixed-capacity ring
    buffer — keeps the recent past of a simulation for debugging.
    Call sites guard with [active ()]; disabled tracing costs one
    branch. Events are typed; text is rendered only on demand, by
    {!message} and {!dump}. *)

(** What happened to a message or node. *)
type kind =
  | Send  (** [x] = delay until arrival (s) *)
  | Handle  (** node [dst] handles a message from [src] *)
  | Suppressed  (** sender [src] is down *)
  | Partitioned  (** the [src]-[dst] link is cut *)
  | Dropped
  | Duplicated  (** [x] = delay of the copy (s) *)
  | Lost_down  (** receiver [dst] is down *)
  | Crash  (** node [src] *)
  | Restart  (** node [src] *)

type event = {
  ev_time : float;
  ev_kind : kind;
  ev_src : int;
  ev_dst : int;
  ev_x : float;
}

val enable : ?capacity:int -> unit -> unit
val disable : unit -> unit

(** Fold every emitted event into a rolling digest (without needing the
    ring): an MD5 chain over fixed 25-byte binary records (kind, time
    bits, src, dst, x bits). Equal digests across two runs mean
    identical full traces — the determinism oracle used by chaos-seed
    replay. [enable_digest] only turns accumulation on; it never clears
    the digest (the tracer is global, and a mid-run enable must not wipe
    history another layer is accumulating). Start a fresh stream with
    [reset_digest]. *)
val enable_digest : unit -> unit

val disable_digest : unit -> unit

(** Clear the rolling digest, starting a fresh stream. *)
val reset_digest : unit -> unit

(** Hex digest of everything emitted since the last [reset_digest].
    Reading it does not disturb the stream. *)
val digest : unit -> string

val active : unit -> bool

(** Record one event. [x] is the delay for [Send] and [Duplicated], 0
    otherwise. Allocates nothing beyond its boxed float arguments. *)
val ev : time:float -> kind -> src:int -> dst:int -> x:float -> unit

(** Total events emitted since [enable] (including overwritten ones). *)
val emitted : unit -> int

(** Retained events, oldest first. *)
val events : unit -> event list

(** The event's one-line text, as [dump] prints it. *)
val message : event -> string

(** Pretty-print the retained events ([last] trims to the final k). *)
val dump : ?last:int -> Format.formatter -> unit
