(* NCC server: non-blocking execution with timestamp refinement
   (Alg 4.2), response timing control (§4.2), smart retry (Alg 4.4),
   the read-only fast path (§4.5), and backup-coordinator recovery
   (§4.6).

   Response timing control is implemented directly on the dependencies
   D1-D3 rather than on the paper's per-key queue sketch:

     D1  a read's response waits for the decision of the version it
         read (aborted -> the read is re-executed locally);
     D2  a write's response waits for the decisions of the reads of the
         version immediately preceding the one it created;
     D3  a write's response waits for the decision of the writer of
         that preceding version.

   Dependencies from a transaction to itself are exempt (a transaction
   that reads and then overwrites the same key must not wait for its
   own decision). Each executed operation yields an "item"; a reply to
   the client is dispatched once every item it carries is released.

   The state response timing control needs lives in one row per key:
   the key's version chain, its unsent items, the largest timestamp it
   has seen, and the undecided reads of any of its versions. An
   operation resolves its row once; an item points back to its row, so
   a decision reaches every row it touches without a lookup. *)

open Kernel
module Store = Mvstore.Store

type item = {
  it_wire : int;
  it_row : row;
  it_is_write : bool;
  mutable it_ver : Store.version;  (* version read / created *)
  it_ts : Ts.t;
  mutable it_sent : bool;
  mutable it_decided : bool;
  it_prev_vid : int;  (* writes: vid of the direct predecessor version *)
  mutable it_tr_floor : Ts.t;
      (* When this transaction later creates the immediate successor of
         [it_ver], the reported t_r of this item is extended to that
         successor's t_w: the version is valid exactly until the own
         write, so the transaction's synchronization point may sit at
         the write's timestamp. Without this, any read-modify-write
         transaction would fail the safeguard against its own reads. *)
  it_rb : reply_builder;
  it_slot : int;  (* index of this op's cell in the reply builder *)
}

and reply_builder = {
  rb_wire : int;
  rb_round : int;  (* echo of x_round, for client-side reply dedup *)
  rb_client : Types.node_id;
  rb_tick : int;  (* the server's {!now_tick} at execution *)
  rb_results : Msg.op_result array;  (* [no_result] until released *)
  mutable rb_remaining : int;
  mutable rb_dead : bool;  (* superseded by an early-abort reply *)
  rb_server_ns : int;
  rb_client_ns : int;
}

and row = {
  rw_key : Types.key;
  rw_chain : Store.chain;
  mutable rw_pending : item list;  (* unsent, newest first *)
  mutable rw_max_seen : Ts.t;
  mutable rw_readers : item list;
      (* undecided read items of any version of the key, newest first *)
}

type txn_rec = {
  tr_wire : int;
  tr_client : Types.node_id;
  tr_ts : Ts.t;
  mutable tr_accesses : item list;  (* newest first *)
  mutable tr_rbs : reply_builder list;
  mutable tr_backup : Types.node_id;
  mutable tr_cohorts : Types.node_id list;
  mutable tr_expected : int;  (* max cumulative op count announced *)
  mutable tr_received : int;
  mutable tr_saw_last : bool;  (* an IS_LAST_SHOT message arrived *)
}

type rinfo = {
  rf_server : Types.node_id;
  rf_known : bool;
  rf_complete : bool;
  rf_pairs : Msg.op_result list;
  rf_decided : bool option;
}

type recover_state = { mutable rc_waiting : int; mutable rc_infos : rinfo list }

type t = {
  ctx : Msg.msg Cluster.Net.ctx;
  cfg : Msg.config;
  store : Store.t;
  rows : row Inttbl.t;  (* keyed by [rw_key] *)
  wires : txn_rec Wires.t;
      (* undecided wire -> its record; decided wire -> its outcome, kept
         for the run: it answers a second Decide, a straggler shot of a
         decided attempt and a recovery query *)
  recovering : recover_state Inttbl.t;
  mutable latest_write_tw : Ts.t;
  last_now : float array;  (* the latest simulated time seen, unboxed *)
  mutable n_ticks : int;  (* distinct simulated times seen *)
  mutable touched : row array;
      (* scratch of [apply_decision]: the rows it re-evaluates, sorted
         by key, in [touched.(0 .. n_touched - 1)] *)
  mutable n_touched : int;
  (* counters *)
  mutable n_ops : int;
  mutable n_early_aborts : int;
  mutable n_ro_aborts : int;
  mutable n_ro_served : int;
  mutable n_replies_immediate : int;
  mutable n_replies_delayed : int;
  mutable n_sr_ok : int;
  mutable n_sr_fail : int;
  mutable n_recoveries : int;
  mutable n_read_fixes : int;
}

(* A reply cell not yet released. *)
let no_result =
  {
    Msg.r_key = min_int;
    r_value = 0;
    r_vid = -1;
    r_tw = Ts.zero;
    r_tr = Ts.zero;
    r_is_write = false;
    r_prev_vid = -1;
  }

let create cfg ctx =
  let no_row =
    { rw_key = min_int; rw_chain = Store.empty_chain (); rw_pending = []; rw_max_seen = Ts.zero;
      rw_readers = [] }
  in
  {
    ctx;
    cfg;
    store = Store.create ();
    rows = Inttbl.keyed ~key:(fun r -> r.rw_key) ~empty:no_row;
    wires =
      Wires.create (fun () ->
          { tr_wire = -1; tr_client = -1; tr_ts = Ts.zero; tr_accesses = []; tr_rbs = [];
            tr_backup = -1; tr_cohorts = []; tr_expected = 0; tr_received = 0; tr_saw_last = false });
    recovering = Inttbl.create ~empty:{ rc_waiting = 0; rc_infos = [] };
    latest_write_tw = Ts.zero;
    last_now = [| Float.neg_infinity |];
    n_ticks = 0;
    touched = Array.make 8 no_row;
    n_touched = 0;
    n_ops = 0;
    n_early_aborts = 0;
    n_ro_aborts = 0;
    n_ro_served = 0;
    n_replies_immediate = 0;
    n_replies_delayed = 0;
    n_sr_ok = 0;
    n_sr_fail = 0;
    n_recoveries = 0;
    n_read_fixes = 0;
  }

(* The key's row, created (with its chain) on first access. *)
let row_of t key =
  let r = Inttbl.find t.rows key in
  if r != Inttbl.absent t.rows then r
  else begin
    let chain = Store.chain t.store key in
    let r =
      { rw_key = key; rw_chain = chain; rw_pending = []; rw_max_seen = Ts.zero; rw_readers = [] }
    in
    Inttbl.replace t.rows key r;
    r
  end

(* --- reply dispatch ------------------------------------------------ *)

(* A read reports the version's refined (t_w, t_r); a write reports
   (t_w, t_w) as captured at execution. Reporting a write's *later*
   global t_r would let two transactions that each read the other's
   write both find the same synchronization point; the floor (own
   successor's t_w) is the only safe extension. *)
let result_of_item it =
  {
    Msg.r_key = it.it_row.rw_key;
    r_value = it.it_ver.Store.value;
    r_vid = it.it_ver.Store.vid;
    r_tw = it.it_ver.Store.tw;
    r_tr =
      (if it.it_is_write then Ts.max it.it_ver.Store.tw it.it_tr_floor
       else Ts.max it.it_ver.Store.tr it.it_tr_floor);
    r_is_write = it.it_is_write;
    r_prev_vid = it.it_prev_vid;
  }

(* Every [Exec_reply] this server sends; [server_ns] is the server
   clock reading it carries. *)
let reply t ~dst ~wire ~round ~server_ns ~client_ns results flag =
  t.ctx.send ~dst
    (Msg.Exec_reply
       {
         e_wire = wire;
         e_round = round;
         e_server = t.ctx.self;
         e_results = results;
         e_server_ns = server_ns;
         e_client_ns = client_ns;
         e_latest_write_tw = t.latest_write_tw;
         e_flag = flag;
       })

(* A reply with no results (an abort), stamped now. *)
let special_reply t ~wire ~round ~client ~client_ns flag =
  reply t ~dst:client ~wire ~round ~server_ns:(Cluster.Net.local_ns t.ctx) ~client_ns [] flag

(* The count of distinct simulated times this server has seen, this
   call's included. Time never runs back, so two calls return the same
   tick iff they ran at the same time: a reply compares ticks, and
   keeps no boxed time. *)
let now_tick t =
  let now = Cluster.Net.now t.ctx in
  if now > t.last_now.(0) then begin
    t.last_now.(0) <- now;
    t.n_ticks <- t.n_ticks + 1
  end;
  t.n_ticks

(* The released cells of [results.(0 .. i)], in slot order, consed
   onto [acc]. *)
let rec released results i acc =
  if i < 0 then acc
  else
    let r = results.(i) in
    (* ncc-lint: allow R18 — one cell per op: the reply's result list *)
    released results (i - 1) (if r != no_result then r :: acc else acc)

let dispatch_reply t rb =
  if rb.rb_dead then ()
  else begin
    if now_tick t > rb.rb_tick then t.n_replies_delayed <- t.n_replies_delayed + 1
    else t.n_replies_immediate <- t.n_replies_immediate + 1;
    reply t ~dst:rb.rb_client ~wire:rb.rb_wire ~round:rb.rb_round ~server_ns:rb.rb_server_ns
      ~client_ns:rb.rb_client_ns
      (released rb.rb_results (Array.length rb.rb_results - 1) [])
      Msg.Ok
  end

(* Release one item: fix its (refined) result into the reply builder
   and dispatch the reply when complete. *)
let release t it =
  if not it.it_sent then begin
    it.it_sent <- true;
    it.it_rb.rb_results.(it.it_slot) <- result_of_item it;
    it.it_rb.rb_remaining <- it.it_rb.rb_remaining - 1;
    if it.it_rb.rb_remaining = 0 then dispatch_reply t it.it_rb
  end

(* --- response timing control --------------------------------------- *)

(* Is one of a row's readers an undecided read of version [vid] by
   another transaction? That blocks a write (D2). *)
let rec undecided_other_readers vid ~wire = function
  | [] -> false
  | r :: rest ->
    (r.it_ver.Store.vid = vid && (not r.it_decided) && r.it_wire <> wire)
    || undecided_other_readers vid ~wire rest

let sendable t it =
  (not t.cfg.rtc) (* negative control: releases are never withheld *)
  || it.it_decided
  ||
  if it.it_is_write then
    let prev = Store.chain_prev it.it_row.rw_chain it.it_ver in
    prev == it.it_ver (* no predecessor *)
    || (prev.Store.status = Store.Committed || prev.Store.writer = it.it_wire)
       && not (undecided_other_readers prev.Store.vid ~wire:it.it_wire it.it_row.rw_readers)
  else
    it.it_ver.Store.status = Store.Committed || it.it_ver.Store.writer = it.it_wire

(* Release every item of [pending] (newest first) whose dependencies
   are now satisfied, oldest first, and answer the rest. Releases never
   enable further releases (sendability depends on decisions, not on
   sends), so one pass suffices. The tail below the newest release is
   shared. *)
let rec release_sendable t = function
  | [] -> []
  | it :: older as l ->
    let older' = release_sendable t older in
    if sendable t it then begin
      release t it;
      older'
    end
    else if older' == older then l
    else
      (* ncc-lint: allow R18 — one cell per still-pending item newer than a released one *)
      it :: older'

let reeval t row = row.rw_pending <- release_sendable t row.rw_pending

(* ncc-lint: allow R18 — one cell per withheld item: the row's pending list *)
let add_pending it = it.it_row.rw_pending <- it :: it.it_row.rw_pending

(* --- fixing reads locally ------------------------------------------ *)

(* The version [it] read was aborted: re-execute the read against the
   current most recent version, producing a refreshed result that feeds
   the same reply slot (§4.2, "fixing reads locally").

   The early-abort rule must be re-applied here: the version the read
   lands on now can belong to a *larger*-timestamp transaction (it
   arrived after the original read), and waiting on it would create the
   only kind of dependency edge that can close a response-wait cycle.
   Every wait created at execution time points to a strictly smaller
   pre-assigned timestamp; re-applying the rule preserves that
   invariant, keeping response timing control deadlock-free. *)
let fix_read t it =
  t.n_read_fixes <- t.n_read_fixes + 1;
  let row = it.it_row in
  let curr = Store.chain_head row.rw_chain in
  let blocked = curr.Store.status = Store.Undecided && curr.Store.writer <> it.it_wire in
  if t.cfg.early_abort && blocked && Ts.(it.it_ts < row.rw_max_seen) then begin
    t.n_early_aborts <- t.n_early_aborts + 1;
    it.it_sent <- true;
    it.it_rb.rb_dead <- true;
    special_reply t ~wire:it.it_wire ~round:it.it_rb.rb_round
      ~client:it.it_rb.rb_client ~client_ns:it.it_rb.rb_client_ns
      Msg.Early_abort
  end
  else begin
    it.it_ver <- Store.chain_read row.rw_chain ~ts:it.it_ts;
    (* ncc-lint: allow R18 — one cell per re-executed read: the row's reader list *)
    row.rw_readers <- it :: row.rw_readers;
    if sendable t it then release t it else add_pending it
  end

(* --- decision processing ------------------------------------------- *)

(* [l] without [it], sharing the tail behind it. An item is on a
   row's reader or pending list at most once. *)
let rec drop it = function
  | [] -> []
  | r :: rest as l ->
    if r == it then rest
    else
      let rest' = drop it rest in
      if rest' == rest then l
      else
        (* ncc-lint: allow R18 — one cell per item ahead of the dropped one *)
        r :: rest'

(* [readers] without the reads of version [vid], sharing the tail
   behind the last of them. *)
let rec drop_readers_of vid = function
  | [] -> []
  | r :: rest as l ->
    let rest' = drop_readers_of vid rest in
    if r.it_ver.Store.vid = vid then rest'
    else if rest' == rest then l
    else
      (* ncc-lint: allow R18 — one cell per reader ahead of a read of an aborted version *)
      r :: rest'

(* The unsent reads of aborted version [vid] in [readers], oldest
   reader list position first: each is re-executed, or released if
   its own transaction is decided. Handling one reader changes no
   other reader's version or sent flag. *)
let rec refix_readers t row vid = function
  | [] -> ()
  | r :: rest ->
    if r.it_ver.Store.vid = vid && not r.it_sent then begin
      (* drop from pending; fix_read re-registers it *)
      row.rw_pending <- drop r row.rw_pending;
      if not r.it_decided then fix_read t r else release t r
    end;
    refix_readers t row vid rest

let rec mark_decided = function
  | [] -> ()
  | it :: rest ->
    it.it_decided <- true;
    if not it.it_is_write then it.it_row.rw_readers <- drop it it.it_row.rw_readers;
    mark_decided rest

(* The version effects of a decision, one access at a time. *)
let rec apply_effects t ~commit = function
  | [] -> ()
  | it :: rest ->
    let row = it.it_row in
    if it.it_is_write then
      if commit then Store.chain_commit t.store row.rw_key row.rw_chain it.it_ver
      else begin
        (* untrack this version's readers before unlinking it *)
        let vid = it.it_ver.Store.vid and readers = row.rw_readers in
        row.rw_readers <- drop_readers_of vid readers;
        Store.chain_abort row.rw_chain it.it_ver;
        refix_readers t row vid readers
      end;
    apply_effects t ~commit rest

(* The slot [row]'s key takes among the first [i] touched rows. *)
let rec sorted_slot a key i =
  if i > 0 && a.(i - 1).rw_key > key then sorted_slot a key (i - 1) else i

(* Add [row] to the rows [apply_decision] re-evaluates, kept sorted by
   key and free of repeats (a key has one row). *)
let touch t row =
  let n = t.n_touched in
  let i = sorted_slot t.touched row.rw_key n in
  if i = 0 || t.touched.(i - 1) != row then begin
    if n = Array.length t.touched then t.touched <- Array.append t.touched t.touched;
    Array.blit t.touched i t.touched (i + 1) (n - i);
    t.touched.(i) <- row;
    t.n_touched <- n + 1
  end

let rec touch_pending t = function
  | [] -> ()
  | it :: rest ->
    (match it.it_row.rw_pending with [] -> () | _ :: _ -> touch t it.it_row);
    touch_pending t rest

(* A second Decide, and one for a wire never seen here, find no
   record: the decision is recorded and nothing else happens. *)
let apply_decision t ~wire ~commit =
  let rec_ = Wires.decide t.wires wire ~commit in
  if rec_ != Wires.absent t.wires then begin
    (* decide items first so re-evaluation sees fresh state *)
    mark_decided rec_.tr_accesses;
    apply_effects t ~commit rec_.tr_accesses;
    (* release anything this decision unblocked, in key order *)
    touch_pending t rec_.tr_accesses;
    for i = 0 to t.n_touched - 1 do
      reeval t t.touched.(i)
    done;
    t.n_touched <- 0
  end

(* --- execution ------------------------------------------------------ *)


(* Does a read of the ops, in op order, observe an undecided version or
   one newer than the client's t_ro? A key is first touched here, so
   the keys after the first unsafe one stay untouched. *)
let rec ro_unsafe t ~tro = function
  | [] -> false
  | op :: rest ->
    let v = Store.most_recent t.store (Types.op_key op) in
    v.Store.status = Store.Undecided || Ts.(v.Store.tw > tro) || ro_unsafe t ~tro rest

let[@tail_mod_cons] rec ro_results t ~ts = function
  | [] -> []
  | op :: rest ->
    let key = Types.op_key op in
    let v = Store.read t.store key ~ts in
    t.n_ops <- t.n_ops + 1;
    (* ncc-lint: allow R18 — one cell and one result per op: the reply *)
    {
      Msg.r_key = key;
      r_value = v.Store.value;
      r_vid = v.Store.vid;
      r_tw = v.Store.tw;
      r_tr = v.Store.tr;
      r_is_write = false;
      r_prev_vid = 0;
    }
    :: ro_results t ~ts rest

(* Read-only fast path (§4.5): serve in one round with no commit phase.
   A read aborts when it would observe an undecided version (it cannot
   wait: there is no commit message to track, so D1 must hold
   trivially) or a version newer than the client's latest-write
   knowledge t_ro. The t_ro fence is what blocks timestamp-inversion
   for reads that skip response timing control: every version served
   was created before a point in time the client had already observed
   when it pre-assigned the timestamp, so any transaction it reads from
   was issued before this one committed — the real-time-order argument
   of §4.7 goes through. The check is per key read (a write elsewhere
   on the server cannot affect this read's dependencies), which keeps
   fast-path aborts proportional to actual read-write conflicts. *)
let exec_read_only t ~src (x : Msg.exec) =
  let stale_server =
    match t.cfg.ro_fence with
    | `Server -> Ts.(t.latest_write_tw > x.x_tro)  (* the paper's fence *)
    | `Key -> false
  in
  if stale_server || ro_unsafe t ~tro:x.x_tro x.x_ops then begin
    t.n_ro_aborts <- t.n_ro_aborts + 1;
    special_reply t ~wire:x.x_wire ~round:x.x_round ~client:src
      ~client_ns:x.x_client_ns Msg.Ro_abort
  end
  else begin
    t.n_ro_served <- t.n_ro_served + 1;
    let results = ro_results t ~ts:x.x_ts x.x_ops in
    t.n_replies_immediate <- t.n_replies_immediate + 1;
    reply t ~dst:src ~wire:x.x_wire ~round:x.x_round ~server_ns:(Cluster.Net.local_ns t.ctx)
      ~client_ns:x.x_client_ns results Msg.Ok
  end

(* Would this operation's response have to wait behind other
   transactions right now? Used by the early-abort rule. *)
let blocked_now row ~wire op =
  let curr = Store.chain_head row.rw_chain in
  let curr_undecided_other =
    curr.Store.status = Store.Undecided && curr.Store.writer <> wire
  in
  if Types.is_write op then
    curr_undecided_other || undecided_other_readers curr.Store.vid ~wire row.rw_readers
  else curr_undecided_other

(* Early abort (§4.2): would an op of [ops] at timestamp [ts], late on
   its key, have to wait behind others? Rows are looked up, not
   created: a fresh key's chain draws its initial vid at the key's
   first store access in op order. A fresh key's max_seen would be
   zero, below every coordinator timestamp. *)
let rec any_late t ~wire ~ts = function
  | [] -> false
  | op :: rest ->
    let row = Inttbl.find t.rows (Types.op_key op) in
    (row != Inttbl.absent t.rows && Ts.(ts < row.rw_max_seen) && blocked_now row ~wire op)
    || any_late t ~wire ~ts rest

(* Not for a decided wire. *)
let find_or_create_txn t ~src (x : Msg.exec) =
  let r = Wires.find t.wires x.x_wire in
  if r != Wires.absent t.wires then r
  else begin
    let r =
      {
        tr_wire = x.x_wire;
        tr_client = src;
        tr_ts = x.x_ts;
        tr_accesses = [];
        tr_rbs = [];
        tr_backup = x.x_backup;
        tr_cohorts = x.x_cohorts;
        tr_expected = x.x_expected_ops;
        tr_received = 0;
        tr_saw_last = false;
      }
    in
    Wires.bind t.wires x.x_wire r;
    (match t.cfg.recovery_timeout with
     | None -> ()
     | Some timeout ->
       t.ctx.timer ~delay:timeout (fun () ->
           if not (Wires.decided t.wires x.x_wire) then
             t.ctx.send ~dst:r.tr_backup
               (Msg.Recover_nudge { rn_wire = x.x_wire; rn_cohorts = r.tr_cohorts })));
    r
  end

(* Is key [k] written by an op of [ops]? *)
let rec written_in k = function
  | [] -> false
  | Types.Write (k', _) :: _ when Types.key_eq k' k -> true
  | (Types.Read _ | Types.Write _) :: rest -> written_in k rest

(* Extend the reported validity of the transaction's earlier accesses
   of version [vid] up to [tw], the t_w of its own write directly after
   that version (read/write-modify-write support). A released cell of
   a reply still being built is refreshed. *)
let rec raise_floors vid tw = function
  | [] -> ()
  | earlier :: rest ->
    if earlier.it_ver.Store.vid = vid then begin
      earlier.it_tr_floor <- Ts.max earlier.it_tr_floor tw;
      if earlier.it_sent && earlier.it_rb.rb_remaining > 0 then
        earlier.it_rb.rb_results.(earlier.it_slot) <- result_of_item earlier
    end;
    raise_floors vid tw rest

(* Execute [ops], this shot's ops from [slot] on, into reply [rb]. *)
let rec exec_ops t rec_ (x : Msg.exec) rb slot = function
  | [] -> ()
  | op :: rest ->
    let row = row_of t (Types.op_key op) in
    row.rw_max_seen <- Ts.max row.rw_max_seen x.x_ts;
    t.n_ops <- t.n_ops + 1;
    let is_write = Types.is_write op in
    let prev_vid = if is_write then (Store.chain_head row.rw_chain).Store.vid else 0 in
    let ver =
      match op with
      | Types.Read k ->
        (* A read followed by a write of the same key in the same shot
           is a fused read-modify-write (the stored-procedure pattern):
           the read serves the pre-state but does not refine t_r,
           because its serialization point is the own write's t_w (set
           via the floor). Refining would force the own write to t_r + 1
           and make the transaction's pairs disjoint. *)
        if written_in k rest then Store.chain_head row.rw_chain
        else Store.chain_read row.rw_chain ~ts:x.x_ts
      | Types.Write (_, value) ->
        let ver = Store.chain_write t.store row.rw_chain value ~ts:x.x_ts ~writer:x.x_wire in
        t.latest_write_tw <- Ts.max t.latest_write_tw ver.Store.tw;
        raise_floors prev_vid ver.Store.tw rec_.tr_accesses;
        ver
    in
    let it =
      {
        it_wire = x.x_wire;
        it_row = row;
        it_is_write = is_write;
        it_ver = ver;
        it_ts = x.x_ts;
        it_sent = false;
        it_decided = false;
        it_prev_vid = prev_vid;
        it_tr_floor = Ts.zero;
        it_rb = rb;
        it_slot = slot;
      }
    in
    (* ncc-lint: allow R18 — one cell per read: the row's reader list *)
    if not is_write then row.rw_readers <- it :: row.rw_readers;
    (* ncc-lint: allow R18 — one cell per op: the record's access list, which the decision walks *)
    rec_.tr_accesses <- it :: rec_.tr_accesses;
    if sendable t it then release t it else add_pending it;
    exec_ops t rec_ x rb (slot + 1) rest

let exec_read_write t ~src (x : Msg.exec) =
  if Wires.decided t.wires x.x_wire then
    (* a late shot of an already-decided (recovered/aborted) attempt *)
    special_reply t ~wire:x.x_wire ~round:x.x_round ~client:src
      ~client_ns:x.x_client_ns Msg.Early_abort
  else begin
    let rec_ = find_or_create_txn t ~src x in
    if rec_.tr_received > 0 && x.x_expected_ops <= rec_.tr_received then
      (* Duplicate delivery of a shot this server already executed
         ([x_expected_ops] is the cumulative op count through this
         shot): executing again would install fresh versions. Drop it;
         the reply it duplicates is deduplicated client-side by round. *)
      ()
    else begin
    let n = List.length x.x_ops in
    rec_.tr_received <- rec_.tr_received + n;
    rec_.tr_expected <- max rec_.tr_expected x.x_expected_ops;
    if x.x_is_last then rec_.tr_saw_last <- true;
    rec_.tr_cohorts <- x.x_cohorts;
    (* early abort (§4.2): a late-timestamped request that would have to
       wait behind others is refused outright, breaking circular waits *)
    if t.cfg.early_abort && any_late t ~wire:x.x_wire ~ts:x.x_ts x.x_ops then begin
      t.n_early_aborts <- t.n_early_aborts + 1;
      special_reply t ~wire:x.x_wire ~round:x.x_round ~client:src
        ~client_ns:x.x_client_ns Msg.Early_abort
    end
    else begin
      let rb =
        {
          rb_wire = x.x_wire;
          rb_round = x.x_round;
          rb_client = src;
          rb_tick = now_tick t;
          rb_results = Array.make n no_result;
          rb_remaining = n;
          rb_dead = false;
          rb_server_ns = Cluster.Net.local_ns t.ctx;
          rb_client_ns = x.x_client_ns;
        }
      in
      (* ncc-lint: allow R18 — one cell per executed shot: the record's replies, which recovery reads *)
      rec_.tr_rbs <- rb :: rec_.tr_rbs;
      exec_ops t rec_ x rb 0 x.x_ops
    end
    end
  end

(* --- smart retry (Alg 4.4) ------------------------------------------ *)

(* Does the first later version after [v] created by another
   transaction leave room for the retry timestamp [ts]? The
   transaction's own writes move together with the retry, so they
   never block it (cross-shot read-modify-write would otherwise
   self-reject forever). *)
let rec next_other_allows c ~wire ~ts v =
  let next = Store.chain_next c v in
  next == v (* none *)
  ||
  if next.Store.writer = wire then next_other_allows c ~wire ~ts next
  else Ts.(next.Store.tw > ts)

let reposition t ~wire ~ts it =
  let ver = it.it_ver in
  if not (next_other_allows it.it_row.rw_chain ~wire ~ts ver) then false
  else if it.it_is_write && not (Ts.equal ver.Store.tw ver.Store.tr) then
    false (* the created version has been read: cannot move *)
  else begin
    if it.it_is_write then begin
      ver.Store.tw <- ts;
      ver.Store.tr <- ts;
      t.latest_write_tw <- Ts.max t.latest_write_tw ts
    end
    else ver.Store.tr <- Ts.max ver.Store.tr ts;
    true
  end

(* [reposition] each of [accesses] (newest first), oldest first,
   stopping at the first that cannot move. *)
let rec reposition_all t ~wire ~ts = function
  | [] -> true
  | it :: older -> reposition_all t ~wire ~ts older && reposition t ~wire ~ts it

let smart_retry t ~src ~wire ~ts =
  let ok =
    let rec_ = Wires.find t.wires wire in
    if rec_ == Wires.absent t.wires then Wires.committed t.wires wire
    else reposition_all t ~wire ~ts rec_.tr_accesses
  in
  if ok then t.n_sr_ok <- t.n_sr_ok + 1 else t.n_sr_fail <- t.n_sr_fail + 1;
  t.ctx.send ~dst:src
    (Msg.Retry_reply { sr_wire = wire; sr_server = t.ctx.self; sr_ok = ok })

(* --- client-failure recovery (§4.6) --------------------------------- *)

let overlap results =
  (* ncc-lint: allow R18 — one cell per recovered decision: the safeguard takes a list of replies *)
  results <> [] && fst (Msg.safeguard [ results ])

let start_recovery t ~wire ~cohorts =
  if (not (Inttbl.mem t.recovering wire)) && not (Wires.decided t.wires wire) then begin
    t.n_recoveries <- t.n_recoveries + 1;
    Inttbl.replace t.recovering wire { rc_waiting = List.length cohorts; rc_infos = [] };
    List.iter
      (fun cohort -> t.ctx.send ~dst:cohort (Msg.Recover_query { rq_wire = wire }))
      cohorts
  end

(* The released cells of [rbs], one reply after another, each in slot
   order. *)
let rec released_of_rbs = function
  | [] -> []
  | rb :: rest -> released rb.rb_results (Array.length rb.rb_results - 1) (released_of_rbs rest)

let rec cells_of_rbs acc = function [] -> acc | rb :: rest -> cells_of_rbs (acc + Array.length rb.rb_results) rest

let send_recover_info t ~dst ~wire ~known ~complete ~pairs ~decided =
  t.ctx.send ~dst
    (Msg.Recover_info
       {
         ri_wire = wire;
         ri_server = t.ctx.self;
         ri_known = known;
         ri_complete = complete;
         ri_pairs = pairs;
         ri_decided = decided;
       })

let answer_recover_query t ~src ~wire =
  let rec_ = Wires.find t.wires wire in
  if rec_ != Wires.absent t.wires then begin
    (* Prefer the pairs already released to the client (so the backup
       reproduces the client's own safeguard inputs exactly); fall
       back to the live version pairs if some are still withheld. *)
    let pairs = released_of_rbs rec_.tr_rbs in
    let total = cells_of_rbs 0 rec_.tr_rbs in
    (* The backup may only commit from the exact pairs the client saw
       (the released reply cells); a transaction with withheld
       replies is aborted conservatively — committing from live
       version state could diverge from the (possibly just slow)
       client's own safeguard and resurrect an aborted attempt. *)
    let all_released = List.length pairs = total && total > 0 in
    let complete = all_released && rec_.tr_saw_last && rec_.tr_received >= rec_.tr_expected in
    send_recover_info t ~dst:src ~wire ~known:true ~complete ~pairs ~decided:None
  end
  else if Wires.decided t.wires wire then
    send_recover_info t ~dst:src ~wire ~known:true ~complete:true ~pairs:[]
      (* ncc-lint: allow R18 — one option per recovery query of a decided wire: the answer names its outcome *)
      ~decided:(Some (Wires.committed t.wires wire))
  else send_recover_info t ~dst:src ~wire ~known:false ~complete:false ~pairs:[] ~decided:None

let rec broadcast_decide t ~wire ~commit = function
  | [] -> ()
  | i :: rest ->
    t.ctx.send ~dst:i.rf_server (Msg.Decide { d_wire = wire; d_commit = commit });
    broadcast_decide t ~wire ~commit rest

let handle_recover_info t ~wire (info : rinfo) =
  let st = Inttbl.find t.recovering wire in
  if
    st == Inttbl.absent t.recovering
    || List.exists (fun i -> Types.node_eq i.rf_server info.rf_server) st.rc_infos
    (* a duplicate delivery of a cohort's answer *)
  then ()
  else begin
    (* ncc-lint: allow R18 — one cell per cohort's answer to a recovery *)
    st.rc_infos <- info :: st.rc_infos;
    st.rc_waiting <- st.rc_waiting - 1;
    if st.rc_waiting = 0 then begin
      Inttbl.remove t.recovering wire;
      let infos = st.rc_infos in
      let all_complete = List.for_all (fun i -> i.rf_known && i.rf_complete) infos in
      match List.find_map (fun i -> i.rf_decided) infos with
      | Some d -> broadcast_decide t ~wire ~commit:d infos (* a cohort already applied a decision *)
      | None ->
        if all_complete then
          (* identical inputs to the client's own safeguard: the
             decision is deterministic, so a slow-but-alive client will
             reach the same verdict *)
          broadcast_decide t ~wire ~commit:(overlap (List.concat_map (fun i -> i.rf_pairs) infos))
            infos
        else
          (* Incomplete: the transaction still has withheld replies, so
             its (possibly live) client has not decided either.
             Deciding from live state would race the client; wait and
             ask again. A client failure mid-execution keeps its
             transactions undecided until an operator-scale timeout —
             under this fault model, failed clients' transactions are
             always complete (only their commit messages are lost). *)
          (match t.cfg.recovery_timeout with
           | Some timeout ->
             let cohorts = List.map (fun i -> i.rf_server) infos in
             t.ctx.timer ~delay:timeout (fun () ->
                 if not (Wires.decided t.wires wire) then
                   start_recovery t ~wire ~cohorts)
           | None -> ())
    end
  end

(* --- message dispatch ------------------------------------------------ *)

let handle t ~src msg =
  match msg with
  | Msg.Exec x -> if x.x_ro then exec_read_only t ~src x else exec_read_write t ~src x
  | Msg.Decide { d_wire; d_commit } -> apply_decision t ~wire:d_wire ~commit:d_commit
  | Msg.Retry { sr_wire; sr_ts } -> smart_retry t ~src ~wire:sr_wire ~ts:sr_ts
  | Msg.Recover_nudge { rn_wire; rn_cohorts } ->
    if Wires.decided t.wires rn_wire then
      (* the decision already reached the backup: re-broadcast it *)
      t.ctx.send ~dst:src
        (Msg.Decide { d_wire = rn_wire; d_commit = Wires.committed t.wires rn_wire })
    else start_recovery t ~wire:rn_wire ~cohorts:rn_cohorts
  | Msg.Recover_query { rq_wire } -> answer_recover_query t ~src ~wire:rq_wire
  | Msg.Recover_info { ri_wire; ri_server; ri_known; ri_complete; ri_pairs; ri_decided } ->
    handle_recover_info t ~wire:ri_wire
      {
        rf_server = ri_server;
        rf_known = ri_known;
        rf_complete = ri_complete;
        rf_pairs = ri_pairs;
        rf_decided = ri_decided;
      }
  | Msg.Exec_reply _ | Msg.Retry_reply _ -> () (* client-bound; not for servers *)

(* --- introspection ---------------------------------------------------- *)

let store t = t.store

let counters t =
  [
    ("ops", float_of_int t.n_ops);
    ("early_aborts", float_of_int t.n_early_aborts);
    ("ro_aborts", float_of_int t.n_ro_aborts);
    ("ro_served", float_of_int t.n_ro_served);
    ("replies_immediate", float_of_int t.n_replies_immediate);
    ("replies_delayed", float_of_int t.n_replies_delayed);
    ("sr_ok", float_of_int t.n_sr_ok);
    ("sr_fail", float_of_int t.n_sr_fail);
    ("read_fixes", float_of_int t.n_read_fixes);
    ("recoveries", float_of_int t.n_recoveries);
  ]
