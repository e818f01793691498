(* Shared pieces of the baseline protocols: per-attempt wire ids,
   result records, participant grouping and outcome assembly. *)

open Kernel

let wire_id ~txn_id ~attempt = (txn_id * 1024) + (attempt land 1023)

(* One executed operation's result, as shipped back to coordinators. *)
type rres = {
  b_key : Types.key;
  b_value : Types.value;
  b_vid : int;
  b_is_write : bool;
}

let result_of_read (v : Mvstore.Store.version) key =
  { b_key = key; b_value = v.Mvstore.Store.value; b_vid = v.Mvstore.Store.vid; b_is_write = false }

let result_of_write (v : Mvstore.Store.version) key =
  { b_key = key; b_value = v.Mvstore.Store.value; b_vid = v.Mvstore.Store.vid; b_is_write = true }

let outcome ~txn ~status ~results ~commit_ts =
  let reads =
    List.filter_map
      (fun r -> if r.b_is_write then None else Some (r.b_key, r.b_vid, r.b_value))
      results
  in
  let writes =
    List.filter_map
      (fun r -> if r.b_is_write then Some (r.b_key, r.b_vid) else None)
      results
  in
  { Outcome.txn; status; reads; writes; commit_ts }

(* The baselines execute the declared shot list only. *)
let reject_dynamic (txn : Txn.t) =
  if Option.is_some txn.Txn.dynamic then
    invalid_arg "interactive (dynamic) transactions require the NCC coordinator"

(* Attempt bookkeeping every baseline coordinator shares. *)
type attempt_counter = int Intmap.t

let next_attempt (t : attempt_counter) txn_id =
  let a = match Intmap.find_opt t txn_id with None -> 1 | Some a -> a + 1 in
  Intmap.replace t txn_id a;
  a

(* A committed transaction is never resubmitted (txn ids are unique per
   generated transaction), so its counter is dead state; coordinators
   drop it at commit to keep memory flat over long runs. An aborted
   attempt keeps it: the retry must draw a fresh wire id. *)
let drop_attempt (t : attempt_counter) txn_id = Intmap.remove t txn_id

(* The wire id of [txn_id]'s current (latest-submitted) attempt, if the
   coordinator ever saw it. Used by cancellation to find the in-flight
   state a request timeout refers to. *)
let current_wire (t : attempt_counter) ~txn_id =
  Option.map (fun attempt -> wire_id ~txn_id ~attempt) (Intmap.find_opt t txn_id)

(* Pre-assigned timestamp from the local (possibly skewed) clock, kept
   strictly monotonic per client so same-instant transactions from one
   client never collide (§4.1's uniqueness assumption). The floor is
   per-coordinator state ([floor] lives in each client record), never
   global — global floors would leak ordering noise across independent
   simulations in one process. *)
let clock_ts (ctx : 'm Cluster.Net.ctx) ~floor =
  let time = max (Cluster.Net.local_ns ctx) (!floor + 1) in
  floor := time;
  Ts.make ~time ~cid:ctx.Cluster.Net.self
