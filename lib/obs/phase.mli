(** Closed transaction-lifecycle phase vocabulary. Protocols classify
    each wire message into one of these (Protocol.S.msg_phase) so
    handler-execution spans carry comparable labels across protocols. *)

type t =
  | Execute    (** read / execute shot processing *)
  | Reply      (** server -> client response *)
  | Validate   (** prepare / validation round *)
  | Commit     (** commit / decide / apply *)
  | Abort      (** explicit aborts, wounds, cancellations *)
  | Retry      (** smart retry / timestamp renewal *)
  | Recover    (** coordinator-failure recovery *)
  | Replicate  (** replication-layer traffic (e.g. Raft) *)

(** Lower-case label used as the span name ("execute", "commit", ...). *)
val to_string : t -> string

(** The [code] of a handler's [Sim.Trace.Handle] event, and back. *)
val code : t -> int

val of_code : int -> t option
