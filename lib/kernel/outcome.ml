(* The result a coordinator reports for one attempt of a transaction. *)

type status =
  | Committed
  | Aborted of abort_reason

and abort_reason =
  | Safeguard_reject      (* timestamp pairs did not overlap; smart retry failed too *)
  | Early_abort           (* server-initiated, to break circular response waits *)
  | Ro_abort              (* read-only fast-path abort (§4.5) *)
  | Validation_failed     (* dOCC / TAPIR validation *)
  | Lock_unavailable      (* 2PL no-wait / write-lock conflict *)
  | Wounded               (* 2PL wound-wait victim *)
  | Ts_order_violation    (* MVTO write rejected by a later read *)
  | Timed_out             (* client-side request timeout; retried by harness *)
  | Other of string

type t = {
  txn : Txn.t;
  status : status;
  reads : (Types.key * int * Types.value) list;
      (* (key, version id, value) observed by the committed attempt *)
  writes : (Types.key * int) list;
      (* (key, version id) of versions the committed attempt installed *)
  commit_ts : Ts.t option;  (* synchronization point, if any *)
}

let aborted ?(reason = Other "abort") txn =
  { txn; status = Aborted reason; reads = []; writes = []; commit_ts = None }

let committed t = match t.status with Committed -> true | Aborted _ -> false

let reason_to_string = function
  | Safeguard_reject -> "safeguard"
  | Early_abort -> "early-abort"
  | Ro_abort -> "ro-abort"
  | Validation_failed -> "validation"
  | Lock_unavailable -> "lock"
  | Wounded -> "wounded"
  | Ts_order_violation -> "ts-order"
  | Timed_out -> "timeout"
  | Other s -> s

(* A reason as a small int, for typed trace records. [Other] texts do
   not survive the round trip: every [Other] comes back as "other". *)
let reason_code = function
  | Safeguard_reject -> 0
  | Early_abort -> 1
  | Ro_abort -> 2
  | Validation_failed -> 3
  | Lock_unavailable -> 4
  | Wounded -> 5
  | Ts_order_violation -> 6
  | Timed_out -> 7
  | Other _ -> 8

let reason_of_code = function
  | 0 -> Safeguard_reject
  | 1 -> Early_abort
  | 2 -> Ro_abort
  | 3 -> Validation_failed
  | 4 -> Lock_unavailable
  | 5 -> Wounded
  | 6 -> Ts_order_violation
  | 7 -> Timed_out
  | _ -> Other "other"

let pp ppf t =
  match t.status with
  | Committed ->
    Fmt.pf ppf "tx%d committed%a" t.txn.Txn.id
      Fmt.(option (any "@" ++ Ts.pp)) t.commit_ts
  | Aborted r -> Fmt.pf ppf "tx%d aborted (%s)" t.txn.Txn.id (reason_to_string r)
