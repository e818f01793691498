(** Transaction descriptors: a sequence of shots, each a batch of
    operations issued in one round. *)

type shot = Types.op list

(** Interactive continuation: fed the reads observed so far, yields the
    next shot, the final shot, or ends the transaction. Must be a pure
    function of the reads (retries re-run it). *)
type step = [ `Shot of shot | `Last of shot | `Done ]

type continuation = (Types.key * Types.value) list -> step

type t = {
  id : int;
  client : Types.node_id;
  shots : shot list;
  dynamic : continuation option;
  read_only : bool;
  label : string;
  bytes : int;
}

(** Reset the global id counter (call between independent simulations so
    runs are reproducible). *)
val reset_ids : unit -> unit

(** [make ~client shots] allocates a fresh id; [dynamic] appends an
    interactive phase after the static shots (supported by the NCC
    coordinators; the baseline protocols reject interactive
    transactions). *)
val make :
  ?label:string -> ?bytes:int -> ?dynamic:continuation ->
  client:Types.node_id -> shot list -> t

(** [wire_id ~txn_id ~attempt] is the id attempt [attempt] of
    transaction [txn_id] carries on the wire. A retried transaction is a
    new wire transaction, so a late message of an earlier attempt is
    never taken for the current one. Ids are unique only for attempts
    1-1024: the attempt number is taken mod 1024, so attempt 1025
    reuses attempt 1's wire id. *)
val wire_id : txn_id:int -> attempt:int -> int

val ops : t -> Types.op list
val keys : t -> Types.key list
val read_keys : t -> Types.key list
val write_keys : t -> Types.key list
val n_shots : t -> int
val pp : t Fmt.t
