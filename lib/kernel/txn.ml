(* A transaction is a sequence of shots; each shot is a batch of
   operations the coordinator issues in one round (§2.1). One-shot
   transactions have a single shot. The read/write sets are fixed when
   the workload generates the transaction — this mirrors the stored-
   procedure / one-shot model the paper's workloads use (TPC-C Payment
   and Order-Status are made multi-shot by splitting their operations
   across shots, which reproduces the messaging structure that matters
   for the evaluation). *)

type shot = Types.op list

(* Interactive transactions: once the static [shots] are executed, the
   continuation is fed everything read so far and produces the next
   step. [`Last] marks the transaction's final shot (used for recovery
   bookkeeping and deferred replication); a continuation that answers
   [`Done] simply ends the transaction. Continuations must be pure
   functions of the observed reads: a retried attempt re-runs them. *)
type step = [ `Shot of shot | `Last of shot | `Done ]
type continuation = (Types.key * Types.value) list -> step

type t = {
  id : int;                 (* globally unique transaction id *)
  client : Types.node_id;   (* issuing client node *)
  shots : shot list;
  dynamic : continuation option;
  read_only : bool;
  label : string;           (* workload class, e.g. "new_order" *)
  bytes : int;              (* approximate payload size, for cost model *)
}

(* Txn ids are drawn from a domain-local counter: Runner.run calls
   [reset_ids] at the start of every run, so ids are a pure function of
   the run, and parallel sweeps (one run per domain at a time) cannot
   race on it. *)
let next_id = Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get next_id := 0

let make ?(label = "txn") ?(bytes = 64) ?dynamic ~client shots =
  let next_id = Domain.DLS.get next_id in
  incr next_id;
  let read_only =
    Option.is_none dynamic
    && List.for_all (List.for_all (fun o -> not (Types.is_write o))) shots
  in
  { id = !next_id; client; shots; dynamic; read_only; label; bytes }

(* Unique only for attempts 1-1024: [attempt land 1023] wraps, so
   attempt 1025 reuses attempt 1's wire id. *)
let wire_id ~txn_id ~attempt = (txn_id * 1024) + (attempt land 1023)

(* A one-shot transaction's ops are its shot, shared, not copied. *)
let ops t = match t.shots with [ shot ] -> shot | shots -> List.concat shots

let keys t = List.map Types.op_key (ops t)

let n_shots t = List.length t.shots

let write_keys t =
  List.filter_map
    (function Types.Write (k, _) -> Some k | Types.Read _ -> None)
    (ops t)

let read_keys t =
  List.filter_map
    (function Types.Read k -> Some k | Types.Write _ -> None)
    (ops t)

let pp ppf t =
  Fmt.pf ppf "@[tx%d(%s%s)@ %a@]" t.id t.label
    (if t.read_only then ",ro" else "")
    Fmt.(list ~sep:semi (brackets (list ~sep:comma Types.pp_op)))
    t.shots
