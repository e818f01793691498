(* NCC client-side coordinator (Alg 4.1): pre-assigns asynchrony-aware
   timestamps (§4.3), drives shots, runs the safeguard over the
   (t_w, t_r) pairs in responses, falls back to smart retry (§4.4), and
   finishes with asynchronous commit/abort messages. Read-only
   transactions use the single-round fast path of §4.5: no commit phase
   at all.

   Fault injection for the recovery experiment (Fig 7c): when
   [fail_commits_after = Some tf], a transaction started before [tf]
   whose decision point falls at or after [tf] sends no commit/abort
   messages (and skips smart retry, so the backup coordinator's
   safeguard-only recovery reaches the same decision). *)

open Kernel

type phase = Executing | Retrying

(* A server this attempt has sent a shot to. *)
type contact = {
  c_server : Types.node_id;
  mutable c_sent : int;  (* cumulative ops sent, all shots *)
  mutable c_round : int;
      (* last round it answered: a shot number, [sr_round] for the smart
         retry, 0 for none yet *)
}

(* Exec replies are ignored once an attempt is retrying, so the smart
   retry marks its replies in [c_round] with a round no shot uses. *)
let sr_round = -1

type inflight = {
  f_txn : Txn.t;
  f_wire : int;
  f_ts : Ts.t;
  f_is_ro : bool;
  f_before_fail : bool;  (* submitted before [fail_commits_after] *)
  mutable f_phase : phase;
  mutable f_shots : Txn.shot list;  (* remaining static shots *)
  mutable f_dynamic : Txn.continuation option;  (* interactive phase *)
  mutable f_final : bool;  (* the shot in flight is the last one *)
  mutable f_awaiting : int;
  mutable f_round : int;  (* current shot number; stamps Exec messages *)
  mutable f_results : Msg.op_result list list;  (* replies' results, newest reply first *)
  mutable f_reads : (Types.key * int * Types.value) list;  (* the outcome's, once split *)
  mutable f_writes : (Types.key * int) list;
  mutable f_flag : [ `Ok | `Early | `Ro ];
  mutable f_participants : Types.node_id list;
  mutable f_contacted : contact list;  (* newest first *)
  mutable f_sr_awaiting : int;
  mutable f_sr_ok : bool;
  mutable f_sr_ts : Ts.t;
}

type t = {
  ctx : Msg.msg Cluster.Net.ctx;
  cfg : Msg.config;
  report : Outcome.t -> unit;
  inflight : inflight Intmap.t;  (* wire id -> state *)
  attempts : int Intmap.t;       (* txn id -> attempt counter *)
  delta : float array;
      (* per server: clock/delay gap, ns EWMA; nan until the first reply *)
  tro : Ts.t array;  (* per server: latest-write knowledge *)
  mutable n_pass : int;       (* safeguard passed directly *)
  mutable n_sr_commit : int;  (* committed through smart retry *)
  mutable n_sr_abort : int;
  mutable n_sg_abort : int;   (* safeguard aborts without smart retry *)
  mutable n_early : int;
  mutable n_ro_abort : int;
  mutable n_ro_commit : int;
  mutable last_time : int;  (* per-client monotonic timestamp floor *)
}

let create cfg ctx ~report =
  {
    ctx;
    cfg;
    report;
    inflight = Intmap.create ();
    attempts = Intmap.create ();
    delta = Array.make ctx.Cluster.Net.topo.n_servers Float.nan;
    tro = Array.make ctx.Cluster.Net.topo.n_servers Ts.zero;
    n_pass = 0;
    n_sr_commit = 0;
    n_sr_abort = 0;
    n_sg_abort = 0;
    n_early = 0;
    n_ro_abort = 0;
    n_ro_commit = 0;
    last_time = 0;
  }

(* Asynchrony-aware timestamp (§4.3): client clock plus the largest
   measured client->server gap among this transaction's participants,
   so the pre-assigned timestamp lands close to the server-local time
   at which the farthest participant will execute the request. *)
let pre_assign t ~participants ~is_ro =
  let base = Cluster.Net.local_ns t.ctx in
  let shift =
    if not t.cfg.async_aware then 0.0
    else
      List.fold_left
        (fun acc s ->
          let d = t.delta.(s) in
          if Float.is_nan d then Float.max acc 0.0 else Float.max acc d)
        0.0 participants
  in
  let time = base + int_of_float shift in
  let time =
    (* a read-only transaction whose timestamp is >= every known t_ro is
       guaranteed to pass the safeguard absent ro_aborts (§4.5) *)
    if is_ro then
      List.fold_left (fun acc s -> max acc (Ts.time t.tro.(s) + 1)) time participants
    else time
  in
  (* timestamps must be unique (§4.1): a client issuing two transactions
     within one clock tick must not reuse a timestamp, or neither looks
     "late" to the early-abort rule and cross-waits can deadlock *)
  let time = max time (t.last_time + 1) in
  t.last_time <- time;
  Ts.make ~time ~cid:t.ctx.self

let commit_suppressed t f =
  match t.cfg.fail_commits_after with
  | None -> false
  | Some tf -> f.f_before_fail && Cluster.Net.now t.ctx >= tf

let send_decide t f ~commit =
  if (not f.f_is_ro) && not (commit_suppressed t f) then
    List.iter
      (fun c -> t.ctx.send ~dst:c.c_server (Msg.Decide { d_wire = f.f_wire; d_commit = commit }))
      f.f_contacted

(* Cons one reply's results onto the outcome lists, last op first, so
   that after the replies newest first the lists run oldest first. *)
let rec split_reply f = function
  | [] -> ()
  | (r : Msg.op_result) :: rest ->
    split_reply f rest;
    (* ncc-lint: allow R18 — one tuple and one cell per op: the outcome's read and write lists, the per-transaction result the harness consumes *)
    if r.r_is_write then f.f_writes <- (r.r_key, r.r_vid) :: f.f_writes else f.f_reads <- (r.r_key, r.r_vid, r.r_value) :: f.f_reads

let rec split_replies f = function
  | [] -> ()
  | rs :: older ->
    split_reply f rs;
    split_replies f older

let outcome_of f ~status ~commit_ts =
  split_replies f f.f_results;
  { Outcome.txn = f.f_txn; status; reads = f.f_reads; writes = f.f_writes; commit_ts }

let finish_commit t f ~commit_ts =
  Intmap.remove t.inflight f.f_wire;
  (* A committed transaction is never resubmitted (txn ids are unique
     per generated transaction), so its attempt counter is dead state;
     dropping it here keeps client memory flat over multi-million-txn
     runs. The abort path keeps the counter — a retry of the same txn
     id must draw a fresh wire id. *)
  Intmap.remove t.attempts f.f_txn.Txn.id;
  if f.f_is_ro then t.n_ro_commit <- t.n_ro_commit + 1;
  send_decide t f ~commit:true;
  (* results are returned to the user in parallel with the commit
     messages, without waiting for acknowledgments (Alg 4.1) *)
  (* ncc-lint: allow R18 — one option per committed transaction: the outcome's commit timestamp *)
  t.report (outcome_of f ~status:Outcome.Committed ~commit_ts:(Some commit_ts))

let finish_abort t f reason =
  Intmap.remove t.inflight f.f_wire;
  send_decide t f ~commit:false;
  t.report (outcome_of f ~status:(Outcome.Aborted reason) ~commit_ts:None)

(* Add [n] ops to [server]'s running count: the new count, or 0 when
   this attempt has not contacted [server] yet. *)
let rec add_sent server n = function
  | [] -> 0
  | c :: rest ->
    if Int.equal c.c_server server then begin
      c.c_sent <- c.c_sent + n;
      c.c_sent
    end
    else add_sent server n rest

(* Mark [server]'s answer to [round]: false if it already answered (a
   duplicate delivery). A reply to the current round comes from a
   server that round contacted. *)
let rec first_reply server round = function
  | [] -> false
  | c :: rest ->
    if Int.equal c.c_server server then
      if c.c_round = round then false
      else begin
        c.c_round <- round;
        true
      end
    else first_reply server round rest

(* Send one shot, already grouped by server. *)
let send_grouped t f by_server =
  f.f_awaiting <- List.length by_server;
  f.f_round <- f.f_round + 1;
  let backup =
    (* first participant overall; an all-dynamic transaction has no
       static participants, so fall back to this shot's first server *)
    match f.f_participants with
    | s :: _ -> s
    | [] -> (match by_server with (s, _) :: _ -> s | [] -> 0)
  in
  List.iter
    (fun (server, ops) ->
      let n = List.length ops in
      let sent =
        match add_sent server n f.f_contacted with
        | 0 ->
          (* ncc-lint: allow R18 — one contact per server per attempt, on its first shot there *)
          f.f_contacted <- { c_server = server; c_sent = n; c_round = 0 } :: f.f_contacted;
          n
        | sent -> sent
      in
      if not (Types.mem_node server f.f_participants) then
        (* ncc-lint: allow R18 — only when an interactive shot reaches a server no static shot named *)
        f.f_participants <- f.f_participants @ [ server ];
      t.ctx.send ~dst:server
        (Msg.Exec
           {
             x_wire = f.f_wire;
             x_round = f.f_round;
             x_ops = ops;
             x_ts = f.f_ts;
             x_ro = f.f_is_ro;
             x_tro = t.tro.(server);
             x_client_ns = Cluster.Net.local_ns t.ctx;
             x_backup = backup;
             x_cohorts = f.f_participants;
             x_expected_ops = sent;
             x_is_last = f.f_final;
             x_bytes = f.f_txn.Txn.bytes;
           }))
    by_server

let send_shot t f shot = send_grouped t f (Cluster.Topology.ops_by_server t.ctx.topo shot)

(* --- safeguard (Alg 4.1, SAFEGUARDCHECK) --------------------------- *)

let safeguard = Msg.safeguard

let start_smart_retry t f ~ts =
  f.f_phase <- Retrying;
  f.f_sr_ts <- ts;
  f.f_sr_awaiting <- List.length f.f_contacted;
  f.f_sr_ok <- true;
  List.iter
    (fun c -> t.ctx.send ~dst:c.c_server (Msg.Retry { sr_wire = f.f_wire; sr_ts = ts }))
    f.f_contacted

(* Reads observed so far, oldest first (input for interactive
   continuations). *)
let reads_so_far f =
  List.concat_map
    (List.filter_map (fun (r : Msg.op_result) ->
         (* ncc-lint: allow R18 — interactive transactions only: the continuation's input is the read list *)
         if r.Msg.r_is_write then None else Some (r.Msg.r_key, r.Msg.r_value)))
    (List.rev f.f_results)

(* Send the next step of the transaction's logic: static shots first,
   then the interactive continuation; fall through to the safeguard
   when the logic is complete. *)
let rec advance t f =
  match f.f_shots with
  | shot :: rest ->
    f.f_shots <- rest;
    if rest = [] && f.f_dynamic = None then f.f_final <- true;
    send_shot t f shot
  | [] ->
    (match f.f_dynamic with
     | Some k ->
       (match k (reads_so_far f) with
        | `Shot shot -> send_shot t f shot
        | `Last shot ->
          f.f_dynamic <- None;
          f.f_final <- true;
          send_shot t f shot
        | `Done ->
          f.f_dynamic <- None;
          decide t f)
     | None -> decide t f)

and shot_complete t f =
  match f.f_flag with
  | `Early ->
    t.n_early <- t.n_early + 1;
    finish_abort t f Outcome.Early_abort
  | `Ro ->
    t.n_ro_abort <- t.n_ro_abort + 1;
    finish_abort t f Outcome.Ro_abort
  | `Ok -> advance t f

and decide t f =
  if f.f_results = [] then finish_commit t f ~commit_ts:f.f_ts (* empty txn *)
  else begin
       let ok, tw_max = safeguard f.f_results in
       if ok then begin
         t.n_pass <- t.n_pass + 1;
         finish_commit t f ~commit_ts:tw_max
       end
       else if t.cfg.smart_retry && (not f.f_is_ro) && not (commit_suppressed t f)
       then start_smart_retry t f ~ts:tw_max
       else begin
         t.n_sg_abort <- t.n_sg_abort + 1;
         finish_abort t f Outcome.Safeguard_reject
       end
  end

let submit t txn =
  let attempt =
    let a =
      match Intmap.find_opt t.attempts txn.Txn.id with None -> 1 | Some a -> a + 1
    in
    Intmap.replace t.attempts txn.Txn.id a;
    a
  in
  let wire = Txn.wire_id ~txn_id:txn.Txn.id ~attempt in
  (* Servers the transaction's *static* shots touch (the asynchrony and
     read-only pre-assignment heuristics work from these; interactive
     shots may add participants later). A one-shot transaction sends
     exactly this grouping, so it is computed once, over its shot
     itself ([Txn.ops] does not copy a single shot). *)
  let grouped = Cluster.Topology.ops_by_server t.ctx.topo (Txn.ops txn) in
  let participants = List.map fst grouped in
  (* The read-only fast path trades aborts for messages (§4.5). The
     first attempt uses it; if it fails (stale t_ro under a
     write-intensive workload), later attempts fall back to the
     read-write protocol, which never ro_aborts. Without the fallback a
     hot write stream can starve read-only transactions outright. *)
  let is_ro = txn.Txn.read_only && t.cfg.use_ro && attempt = 1 in
  let ts = pre_assign t ~participants ~is_ro in
  let f =
    {
      f_txn = txn;
      f_wire = wire;
      f_ts = ts;
      f_is_ro = is_ro;
      f_before_fail =
        (match t.cfg.fail_commits_after with
         | None -> false
         | Some tf -> Cluster.Net.now t.ctx < tf);
      f_phase = Executing;
      f_shots = txn.Txn.shots;
      f_dynamic = txn.Txn.dynamic;
      f_final = false;
      f_awaiting = 0;
      f_round = 0;
      f_results = [];
      f_reads = [];
      f_writes = [];
      f_flag = `Ok;
      f_participants = participants;
      f_contacted = [];
      f_sr_awaiting = 0;
      f_sr_ok = true;
      f_sr_ts = Ts.zero;
    }
  in
  Intmap.replace t.inflight wire f;
  match txn.Txn.shots with
  | [ _ ] when Option.is_none txn.Txn.dynamic ->
    f.f_shots <- [];
    f.f_final <- true;
    send_grouped t f grouped
  | _ -> advance t f

let handle_exec_reply t (r : Msg.exec_reply) =
  (* asynchrony tracking and latest-write knowledge are updated even
     for stale replies *)
  let sample = float_of_int (r.e_server_ns - r.e_client_ns) in
  let prev = t.delta.(r.e_server) in
  (* the first sample is blended with itself *)
  let prev = if Float.is_nan prev then sample else prev in
  t.delta.(r.e_server) <- (0.8 *. prev) +. (0.2 *. sample);
  t.tro.(r.e_server) <- Ts.max t.tro.(r.e_server) r.e_latest_write_tw;
  match Intmap.find_opt t.inflight r.e_wire with
  | None -> ()
  | Some f when f.f_phase <> Executing -> ()
  | Some f when r.e_round <> f.f_round || not (first_reply r.e_server r.e_round f.f_contacted) ->
    () (* stale round, or a duplicate delivery of this round's reply *)
  | Some f ->
    (match r.e_flag with
     | Msg.Ok ->
       (* ncc-lint: allow R17 — one cell per reply: its result list is kept as the server sent it *)
       if r.e_results <> [] then f.f_results <- r.e_results :: f.f_results
     | Msg.Early_abort -> f.f_flag <- `Early
     | Msg.Ro_abort -> if f.f_flag = `Ok then f.f_flag <- `Ro);
    f.f_awaiting <- f.f_awaiting - 1;
    if f.f_awaiting = 0 then shot_complete t f

let handle_retry_reply t ~wire ~server ~ok =
  match Intmap.find_opt t.inflight wire with
  | None -> ()
  | Some f when f.f_phase <> Retrying -> ()
  | Some f when not (first_reply server sr_round f.f_contacted) -> () (* duplicate delivery *)
  | Some f ->
    if not ok then f.f_sr_ok <- false;
    f.f_sr_awaiting <- f.f_sr_awaiting - 1;
    if f.f_sr_awaiting = 0 then
      if f.f_sr_ok then begin
        t.n_sr_commit <- t.n_sr_commit + 1;
        finish_commit t f ~commit_ts:f.f_sr_ts
      end
      else begin
        t.n_sr_abort <- t.n_sr_abort + 1;
        finish_abort t f Outcome.Safeguard_reject
      end

(* Request timeout from the harness: abandon the in-flight attempt.
   [finish_abort] sends abort Decides to every contacted server, which
   releases responses withheld behind this transaction's writes and
   discards its pending versions; the retried attempt runs under a
   fresh wire id, so nothing from this attempt can be mistaken for it. *)
let cancel t txn =
  let f =
    match Intmap.find_opt t.attempts txn.Txn.id with
    | None -> None
    | Some attempt ->
      Intmap.find_opt t.inflight (Txn.wire_id ~txn_id:txn.Txn.id ~attempt)
  in
  (match f with
   | Some f -> finish_abort t f Outcome.Timed_out
   | None ->
     (* nothing in flight (a completion raced this timeout): report the
        timeout anyway so the harness's attempt bookkeeping stays sound *)
     t.report (Outcome.aborted ~reason:Outcome.Timed_out txn));
  `Cancelled

let handle t ~src:_ msg =
  match msg with
  | Msg.Exec_reply r -> handle_exec_reply t r
  | Msg.Retry_reply { sr_wire; sr_server; sr_ok } ->
    handle_retry_reply t ~wire:sr_wire ~server:sr_server ~ok:sr_ok
  | Msg.Exec _ | Msg.Decide _ | Msg.Retry _ | Msg.Recover_nudge _ | Msg.Recover_query _
  | Msg.Recover_info _ ->
    () (* server-bound; not for clients *)

let counters t =
  [
    ("sg_pass", float_of_int t.n_pass);
    ("sr_commit", float_of_int t.n_sr_commit);
    ("sr_abort", float_of_int t.n_sr_abort);
    ("sg_abort", float_of_int t.n_sg_abort);
    ("early_abort_txns", float_of_int t.n_early);
    ("ro_abort_txns", float_of_int t.n_ro_abort);
    ("ro_commit_txns", float_of_int t.n_ro_commit);
  ]
