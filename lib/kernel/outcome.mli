(** The result a coordinator reports for one attempt of a transaction. *)

type status =
  | Committed
  | Aborted of abort_reason

and abort_reason =
  | Safeguard_reject
  | Early_abort
  | Ro_abort
  | Validation_failed
  | Lock_unavailable
  | Wounded
  | Ts_order_violation
  | Timed_out
  | Other of string

type t = {
  txn : Txn.t;
  status : status;
  reads : (Types.key * int * Types.value) list;
      (** (key, version id, value) observed by the committed attempt *)
  writes : (Types.key * int) list;
      (** (key, version id) the committed attempt installed *)
  commit_ts : Ts.t option;  (** synchronization point, if any *)
}

(** Abort outcome with no observations. *)
val aborted : ?reason:abort_reason -> Txn.t -> t

val committed : t -> bool
val reason_to_string : abort_reason -> string

(** A reason as a small int, for typed trace records. *)
val reason_code : abort_reason -> int

(** Inverse of {!reason_code}, except that every [Other] text comes
    back as [Other "other"]. *)
val reason_of_code : int -> abort_reason
val pp : t Fmt.t
