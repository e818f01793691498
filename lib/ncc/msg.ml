(* Wire protocol and configuration of NCC.

   Transactions appear on the wire under an attempt-unique id
   ("wire id", {!Kernel.Txn.wire_id}): a retried transaction is a
   brand-new wire transaction, so a late commit/abort message from a
   previous attempt can never be confused with the current one. *)

open Kernel

type config = {
  use_ro : bool;          (* specialized read-only protocol (§4.5) *)
  smart_retry : bool;     (* reactive timestamp repair (§4.4) *)
  async_aware : bool;     (* asynchrony-aware timestamps (§4.3) *)
  early_abort : bool;     (* break circular response waits (§4.2) *)
  ro_fence : [ `Server | `Key ];
      (* granularity of the read-only freshness fence (§4.5). The paper
         tracks t_ro per *server* (any newer write on the server aborts
         the read). [`Key] applies the same fence only to the keys
         actually read — the §4.7 real-time argument needs exactly
         that, and it keeps fast-path aborts proportional to true
         read-write conflicts instead of to the server's write rate
         (essential with a modest client pool, whose t_ro knowledge
         refreshes less often than the paper's). *)
  rtc : bool;
      (* response timing control (§4.2). Disabling it is a NEGATIVE
         CONTROL: responses release immediately, which re-opens the
         timestamp-inversion pitfall the paper identifies (§3) — the
         checker then catches real strict-serializability violations.
         Never disable outside experiments. *)
  fail_commits_after : float option;
      (* fault injection (Fig 7c): transactions *started* before this
         true time never send their commit/abort messages *)
  recovery_timeout : float option;
      (* backup-coordinator timeout for undecided transactions (§4.6) *)
}

let default_config =
  {
    use_ro = true;
    smart_retry = true;
    async_aware = true;
    early_abort = true;
    ro_fence = `Key;
    rtc = true;
    fail_commits_after = None;
    recovery_timeout = None;
  }

type op_result = {
  r_key : Types.key;
  r_value : Types.value;
  r_vid : int;
  r_tw : Ts.t;
  r_tr : Ts.t;
  r_is_write : bool;
  r_prev_vid : int;
      (* for writes: the version id this write was ordered directly
         after. The client uses it to extend its *own* earlier accesses
         of that exact version up to this write's t_w (a version is
         valid precisely until its successor), which is what lets
         cross-shot read-modify-write transactions pass the safeguard. *)
}

type flag = Ok | Early_abort | Ro_abort

(* --- the safeguard (Alg 4.1) --------------------------------------

   Shared by the client coordinator and the backup coordinator's
   recovery path, so both always reach the same decision from the same
   responses. *)

(* Own writes extend the reported validity of the results they
   directly succeed: a version is valid exactly until its successor's
   t_w, and [r_prev_vid] certifies the adjacency. This is what lets
   cross-shot read-modify-write transactions (whose read replies left
   the server before the write executed) overlap with themselves. An
   extension raises a result's t_r to the largest t_w among own writes
   directly after its version; it never moves a t_w, and nothing
   extends transitively along a chain of own writes.

   The verdict needs no extended list: the pairs share a point iff
   every result's extended t_r reaches the largest t_w, that is iff
   each result below it is directly followed by an own write whose
   t_w reaches it. *)

(* The results come as a list of replies' result lists, in any order.
   Does an own write among [replies] directly follow version [vid] with
   a t_w of at least [tw]? *)
let rec own_write_in vid tw = function
  | [] -> false
  | w :: rest ->
    (w.r_is_write && w.r_prev_vid = vid && Ts.(w.r_tw >= tw)) || own_write_in vid tw rest

let rec followed_by_own_write vid tw = function
  | [] -> false
  | rs :: more -> own_write_in vid tw rs || followed_by_own_write vid tw more

let rec max_tw_in acc = function [] -> acc | r :: rest -> max_tw_in (Ts.max acc r.r_tw) rest
let rec max_tw acc = function [] -> acc | rs :: more -> max_tw (max_tw_in acc rs) more

(* Does every result of the list reach [tw], directly or through an
   own write of [replies]? *)
let rec all_reach_in replies tw = function
  | [] -> true
  | r :: rest ->
    (Ts.(r.r_tr >= tw) || followed_by_own_write r.r_vid tw replies)
    && all_reach_in replies tw rest

let rec all_reach replies tw = function
  | [] -> true
  | rs :: more -> all_reach_in replies tw rs && all_reach replies tw more

(* Commit iff the (extended) pairs share a synchronization point; the
   maximal t_w is the commit timestamp / smart-retry suggestion. One
   pass finds it and one checks every result against it; only a result
   that needs an own write to reach it scans the lists again. *)
let safeguard results =
  let tw_max = max_tw Ts.zero results in
  (* ncc-lint: allow R18 — one pair per decided transaction: the verdict and its commit timestamp *)
  (all_reach results tw_max results, tw_max)

type exec = {
  x_wire : int;
  x_round : int;           (* shot number within the attempt: the client
                              ignores replies to any other round, which
                              makes duplicate delivery harmless *)
  x_ops : Types.op list;   (* this server's operations for this shot *)
  x_ts : Ts.t;             (* pre-assigned transaction timestamp *)
  x_ro : bool;             (* use the read-only fast path *)
  x_tro : Ts.t;            (* client's latest-write knowledge of this server *)
  x_client_ns : int;       (* client clock at send (asynchrony tracking) *)
  x_backup : Types.node_id;
  x_cohorts : Types.node_id list;  (* all participants of the transaction *)
  x_expected_ops : int;    (* total ops this server will receive, all shots *)
  x_is_last : bool;        (* IS_LAST_SHOT (§4.6): no further shots follow *)
  x_bytes : int;           (* payload size for the cost model *)
}

type exec_reply = {
  e_wire : int;
  e_round : int;           (* echo of x_round *)
  e_server : Types.node_id;
  e_results : op_result list;
  e_server_ns : int;       (* server clock at execution *)
  e_client_ns : int;       (* echo of x_client_ns *)
  e_latest_write_tw : Ts.t;
  e_flag : flag;
}

type msg =
  | Exec of exec
  | Exec_reply of exec_reply
  | Decide of { d_wire : int; d_commit : bool }
  | Retry of { sr_wire : int; sr_ts : Ts.t }            (* smart retry *)
  | Retry_reply of { sr_wire : int; sr_server : Types.node_id; sr_ok : bool }
  | Recover_nudge of { rn_wire : int; rn_cohorts : Types.node_id list }
  | Recover_query of { rq_wire : int }
  | Recover_info of {
      ri_wire : int;
      ri_server : Types.node_id;
      ri_known : bool;
      ri_complete : bool;  (* received all expected ops *)
      ri_pairs : op_result list;  (* the results released (or pending) *)
      ri_decided : bool option;  (* decision this cohort already applied *)
    }

(* Only server-bound messages are costed by the harness; replies are
   handled on client CPUs at the flat client cost. The backup
   coordinator is a server, so recovery messages are costed too. *)
(* Lifecycle phase of each message, for trace span labels. *)
let phase : msg -> Obs.Phase.t = function
  | Exec _ -> Obs.Phase.Execute
  | Exec_reply _ | Retry_reply _ -> Obs.Phase.Reply
  | Decide { d_commit = true; _ } -> Obs.Phase.Commit
  | Decide _ -> Obs.Phase.Abort
  | Retry _ -> Obs.Phase.Retry
  | Recover_nudge _ | Recover_query _ | Recover_info _ -> Obs.Phase.Recover

let cost (c : Harness.Cost.t) = function
  | Exec x -> Harness.Cost.server c ~ops:(List.length x.x_ops) ~bytes:x.x_bytes ()
  | Decide _ -> Harness.Cost.server c ()
  | Retry _ -> Harness.Cost.server c ~ops:1 ()
  | Recover_nudge _ | Recover_query _ -> Harness.Cost.server c ()
  | Recover_info i -> Harness.Cost.server c ~ops:(List.length i.ri_pairs) ()
  | Exec_reply r -> Harness.Cost.server c ~ops:(List.length r.e_results) ()
  | Retry_reply _ -> Harness.Cost.server c ()
