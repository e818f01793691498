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
  rb_created : float;
  rb_results : Msg.op_result option array;
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

(* [decided] answers late or duplicated messages — a second Decide, a
   straggler shot of a decided attempt, a recovery query — so entries
   must outlive any reordering the latency model or fault plane can
   produce. But one entry per wire kept forever makes multi-million-txn
   runs grow without bound (~50 B x txns x participants); a real server
   would truncate this record behind a watermark. The FIFO ring below
   caps it: past [decided_horizon] recorded decisions, each new one
   evicts the oldest. At cluster-scale decision rates (~10k/s/server)
   2^15 decisions span seconds of simulated time, orders of magnitude
   beyond any latency-model jitter, chaos-plane delay or recovery
   timeout, so eviction only ever fires deep into runs where the
   evicted wires are long dead. *)
let decided_horizon = 1 lsl 15

type t = {
  ctx : Msg.msg Cluster.Net.ctx;
  cfg : Msg.config;
  store : Store.t;
  rows : (Types.key, row) Hashtbl.t;
  txns : (int, txn_rec) Hashtbl.t;  (* undecided wire transactions *)
  decided : (int, bool) Hashtbl.t;  (* wire -> committed?, horizon-bounded *)
  mutable dec_ring : int array;  (* FIFO of recorded wires *)
  mutable dec_pos : int;  (* next write slot *)
  mutable dec_len : int;  (* live entries, = Hashtbl.length decided *)
  recovering : (int, recover_state) Hashtbl.t;
  mutable latest_write_tw : Ts.t;
  (* counters *)
  mutable n_ops : int;
  mutable n_early_aborts : int;
  mutable n_ro_aborts : int;
  mutable n_ro_served : int;
  mutable n_replies_immediate : int;
  mutable n_replies_delayed : int;
  mutable n_sr_ok : int;
  mutable n_sr_fail : int;
  mutable n_decides : int;
  mutable n_recoveries : int;
  mutable n_read_fixes : int;
}

let create cfg ctx =
  {
    ctx;
    cfg;
    store = Store.create ();
    rows = Hashtbl.create 1024;
    txns = Hashtbl.create 256;
    decided = Hashtbl.create 4096;
    dec_ring = Array.make 1024 0;
    dec_pos = 0;
    dec_len = 0;
    recovering = Hashtbl.create 16;
    latest_write_tw = Ts.zero;
    n_ops = 0;
    n_early_aborts = 0;
    n_ro_aborts = 0;
    n_ro_served = 0;
    n_replies_immediate = 0;
    n_replies_delayed = 0;
    n_sr_ok = 0;
    n_sr_fail = 0;
    n_decides = 0;
    n_recoveries = 0;
    n_read_fixes = 0;
  }

(* The key's row, created (with its chain) on first access. *)
let row_of t key =
  match Hashtbl.find_opt t.rows key with
  | Some r -> r
  | None ->
    let chain = Store.chain t.store key in
    let r =
      { rw_key = key; rw_chain = chain; rw_pending = []; rw_max_seen = Ts.zero; rw_readers = [] }
    in
    Hashtbl.add t.rows key r;
    r

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

let dispatch_reply t rb =
  if rb.rb_dead then ()
  else
  let now = Cluster.Net.now t.ctx in
  if now > rb.rb_created then t.n_replies_delayed <- t.n_replies_delayed + 1
  else t.n_replies_immediate <- t.n_replies_immediate + 1;
  let rec results i acc =
    if i < 0 then acc
    else results (i - 1) (match rb.rb_results.(i) with Some r -> r :: acc | None -> acc)
  in
  t.ctx.send ~dst:rb.rb_client
    (Msg.Exec_reply
       {
         e_wire = rb.rb_wire;
         e_round = rb.rb_round;
         e_server = t.ctx.self;
         e_results = results (Array.length rb.rb_results - 1) [];
         e_server_ns = rb.rb_server_ns;
         e_client_ns = rb.rb_client_ns;
         e_latest_write_tw = t.latest_write_tw;
         e_flag = Msg.Ok;
       })

let special_reply t ~wire ~round ~client ~client_ns flag =
  t.ctx.send ~dst:client
    (Msg.Exec_reply
       {
         e_wire = wire;
         e_round = round;
         e_server = t.ctx.self;
         e_results = [];
         e_server_ns = Cluster.Net.local_ns t.ctx;
         e_client_ns = client_ns;
         e_latest_write_tw = t.latest_write_tw;
         e_flag = flag;
       })

(* Release one item: fix its (refined) result into the reply builder
   and dispatch the reply when complete. *)
let release t it =
  if not it.it_sent then begin
    it.it_sent <- true;
    it.it_rb.rb_results.(it.it_slot) <- Some (result_of_item it);
    it.it_rb.rb_remaining <- it.it_rb.rb_remaining - 1;
    if it.it_rb.rb_remaining = 0 then dispatch_reply t it.it_rb
  end

(* --- response timing control --------------------------------------- *)

(* An undecided read of version [vid] by another transaction blocks a
   write (D2). *)
let undecided_other_readers row vid ~wire =
  List.exists
    (fun r -> r.it_ver.Store.vid = vid && (not r.it_decided) && r.it_wire <> wire)
    row.rw_readers

let sendable t it =
  (not t.cfg.rtc) (* negative control: releases are never withheld *)
  || it.it_decided
  ||
  if it.it_is_write then
    match Store.chain_prev it.it_row.rw_chain it.it_ver with
    | None -> true
    | Some prev ->
      (prev.Store.status = Store.Committed || prev.Store.writer = it.it_wire)
      && not (undecided_other_readers it.it_row prev.Store.vid ~wire:it.it_wire)
  else
    it.it_ver.Store.status = Store.Committed || it.it_ver.Store.writer = it.it_wire

(* Release every pending item of [row] whose dependencies are now
   satisfied, oldest first. Releases never enable further releases
   (sendability depends on decisions, not on sends), so one pass
   suffices. *)
let reeval t row =
  let rec keep = function
    | [] -> []
    | it :: older as l ->
      let older' = keep older in
      if sendable t it then begin
        release t it;
        older'
      end
      else if older' == older then l
      else it :: older'
  in
  row.rw_pending <- keep row.rw_pending

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
    row.rw_readers <- it :: row.rw_readers;
    if sendable t it then release t it else add_pending it
  end

(* --- decision processing ------------------------------------------- *)

let drop it l = List.filter (fun r -> r != it) l

(* Record a decision in [decided], keeping the record horizon-bounded.
   The ring holds recorded wires in FIFO order: entries live at
   [dec_pos - dec_len, dec_pos) mod capacity, so when it is full the
   oldest wire sits exactly at [dec_pos]. It grows by doubling up to
   [decided_horizon]; past that, each insert evicts the oldest
   decision. Purely deterministic — eviction order is insertion
   order — so replay identity is unaffected. *)
let record_decided t wire commit =
  Hashtbl.replace t.decided wire commit;
  let cap = Array.length t.dec_ring in
  let cap =
    if t.dec_len = cap && cap < decided_horizon then begin
      let bigger = Array.make (2 * cap) 0 in
      Array.blit t.dec_ring t.dec_pos bigger 0 (cap - t.dec_pos);
      Array.blit t.dec_ring 0 bigger (cap - t.dec_pos) t.dec_pos;
      t.dec_ring <- bigger;
      t.dec_pos <- cap;
      2 * cap
    end
    else cap
  in
  if t.dec_len = cap then begin
    Hashtbl.remove t.decided t.dec_ring.(t.dec_pos);
    t.dec_len <- t.dec_len - 1
  end;
  t.dec_ring.(t.dec_pos) <- wire;
  t.dec_pos <- (t.dec_pos + 1) mod cap;
  t.dec_len <- t.dec_len + 1

let apply_decision t ~wire ~commit =
  if not (Hashtbl.mem t.decided wire) then begin
    record_decided t wire commit;
    t.n_decides <- t.n_decides + 1;
    match Hashtbl.find_opt t.txns wire with
    | None -> ()
    | Some rec_ ->
      Hashtbl.remove t.txns wire;
      (* decide items first so re-evaluation sees fresh state *)
      List.iter
        (fun it ->
          it.it_decided <- true;
          if not it.it_is_write then it.it_row.rw_readers <- drop it it.it_row.rw_readers)
        rec_.tr_accesses;
      (* apply version effects *)
      List.iter
        (fun it ->
          let row = it.it_row in
          if it.it_is_write then
            if commit then Store.chain_commit t.store row.rw_key row.rw_chain it.it_ver
            else begin
              (* untrack this version's readers before unlinking it *)
              let vid = it.it_ver.Store.vid in
              let readers, others =
                List.partition (fun r -> r.it_ver.Store.vid = vid) row.rw_readers
              in
              row.rw_readers <- others;
              Store.chain_abort row.rw_chain it.it_ver;
              List.iter
                (fun r ->
                  (* drop from pending; fix_read re-registers it *)
                  row.rw_pending <- drop r row.rw_pending;
                  if not r.it_decided then fix_read t r else release t r)
                (List.filter (fun r -> not r.it_sent) readers)
            end)
        rec_.tr_accesses;
      (* release anything this decision unblocked, in key order *)
      let touched =
        List.fold_left
          (fun acc it ->
            match it.it_row.rw_pending with [] -> acc | _ :: _ -> it.it_row :: acc)
          [] rec_.tr_accesses
      in
      List.iter (reeval t)
        (List.sort_uniq (fun a b -> Int.compare a.rw_key b.rw_key) touched);
      if t.cfg.gc_every > 0 && t.n_decides mod t.cfg.gc_every = 0 then
        Store.gc ~keep:8 t.store
  end

(* --- execution ------------------------------------------------------ *)


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
  let unsafe op =
    let v = Store.most_recent t.store (Types.op_key op) in
    v.Store.status = Store.Undecided || Ts.(v.Store.tw > x.x_tro)
  in
  if stale_server || List.exists unsafe x.x_ops then begin
    t.n_ro_aborts <- t.n_ro_aborts + 1;
    special_reply t ~wire:x.x_wire ~round:x.x_round ~client:src
      ~client_ns:x.x_client_ns Msg.Ro_abort
  end
  else begin
    t.n_ro_served <- t.n_ro_served + 1;
    let results =
      List.map
        (fun op ->
          let key = Types.op_key op in
          let v = Store.read t.store key ~ts:x.x_ts in
          t.n_ops <- t.n_ops + 1;
          {
            Msg.r_key = key;
            r_value = v.Store.value;
            r_vid = v.Store.vid;
            r_tw = v.Store.tw;
            r_tr = v.Store.tr;
            r_is_write = false;
            r_prev_vid = 0;
          })
        x.x_ops
    in
    t.n_replies_immediate <- t.n_replies_immediate + 1;
    t.ctx.send ~dst:src
      (Msg.Exec_reply
         {
           e_wire = x.x_wire;
           e_round = x.x_round;
           e_server = t.ctx.self;
           e_results = results;
           e_server_ns = Cluster.Net.local_ns t.ctx;
           e_client_ns = x.x_client_ns;
           e_latest_write_tw = t.latest_write_tw;
           e_flag = Msg.Ok;
         })
  end

(* Would this operation's response have to wait behind other
   transactions right now? Used by the early-abort rule. *)
let blocked_now row ~wire op =
  let curr = Store.chain_head row.rw_chain in
  let curr_undecided_other =
    curr.Store.status = Store.Undecided && curr.Store.writer <> wire
  in
  if Types.is_write op then
    curr_undecided_other || undecided_other_readers row curr.Store.vid ~wire
  else curr_undecided_other

let find_or_create_txn t ~src (x : Msg.exec) =
  match Hashtbl.find_opt t.txns x.x_wire with
  | Some r -> r
  | None ->
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
    Hashtbl.add t.txns x.x_wire r;
    (match t.cfg.recovery_timeout with
     | None -> ()
     | Some timeout ->
       t.ctx.timer ~delay:timeout (fun () ->
           if Hashtbl.mem t.txns x.x_wire then
             t.ctx.send ~dst:r.tr_backup
               (Msg.Recover_nudge { rn_wire = x.x_wire; rn_cohorts = r.tr_cohorts })));
    r

let exec_read_write t ~src (x : Msg.exec) =
  if Hashtbl.mem t.decided x.x_wire then
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
    rec_.tr_received <- rec_.tr_received + List.length x.x_ops;
    rec_.tr_expected <- max rec_.tr_expected x.x_expected_ops;
    if x.x_is_last then rec_.tr_saw_last <- true;
    rec_.tr_cohorts <- x.x_cohorts;
    (* Each op resolves its row once, here. The early-abort pass below
       must not create rows: a fresh key's chain draws its initial vid
       at the key's first store access in op order. *)
    let ops = Array.of_list x.x_ops in
    let n = Array.length ops in
    let rows = Array.map (fun op -> Hashtbl.find_opt t.rows (Types.op_key op)) ops in
    (* early abort (§4.2): a late-timestamped request that would have to
       wait behind others is refused outright, breaking circular waits *)
    let late_and_blocked slot =
      match rows.(slot) with
      | Some row -> Ts.(x.x_ts < row.rw_max_seen) && blocked_now row ~wire:x.x_wire ops.(slot)
      | None -> false (* a fresh row's max_seen is zero, below every coordinator timestamp *)
    in
    let rec any_late slot = slot < n && (late_and_blocked slot || any_late (slot + 1)) in
    if t.cfg.early_abort && any_late 0 then begin
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
          rb_created = Cluster.Net.now t.ctx;
          rb_results = Array.make n None;
          rb_remaining = n;
          rb_dead = false;
          rb_server_ns = Cluster.Net.local_ns t.ctx;
          rb_client_ns = x.x_client_ns;
        }
      in
      rec_.tr_rbs <- rb :: rec_.tr_rbs;
      (* A read followed by a write of the same key in the same shot is
         a fused read-modify-write (the stored-procedure pattern): the
         read serves the pre-state but does not refine t_r, because its
         serialization point is the own write's t_w (set via the
         floor). Refining would force the own write to t_r + 1 and make
         the transaction's pairs disjoint. *)
      let fused slot =
        match ops.(slot) with
        | Types.Write _ -> false
        | Types.Read k ->
          let rec later i =
            i < n
            && (match ops.(i) with
                | Types.Write (k', _) when Types.key_eq k' k -> true
                | Types.Read _ | Types.Write _ -> later (i + 1))
          in
          later (slot + 1)
      in
      Array.iteri
        (fun slot op ->
          let row =
            match rows.(slot) with Some r -> r | None -> row_of t (Types.op_key op)
          in
          row.rw_max_seen <- Ts.max row.rw_max_seen x.x_ts;
          t.n_ops <- t.n_ops + 1;
          let is_write = Types.is_write op in
          let prev_vid = if is_write then (Store.chain_head row.rw_chain).Store.vid else 0 in
          let ver =
            match op with
            | Types.Read _ -> Store.chain_read ~refine:(not (fused slot)) row.rw_chain ~ts:x.x_ts
            | Types.Write (_, value) ->
              let ver = Store.chain_write t.store row.rw_chain value ~ts:x.x_ts ~writer:x.x_wire in
              t.latest_write_tw <- Ts.max t.latest_write_tw ver.Store.tw;
              (* extend the reported validity of this transaction's own
                 earlier accesses to the predecessor version up to the
                 new write's t_w (read/write-modify-write support) *)
              List.iter
                (fun earlier ->
                  if earlier.it_ver.Store.vid = prev_vid then begin
                    earlier.it_tr_floor <- Ts.max earlier.it_tr_floor ver.Store.tw;
                    if earlier.it_sent && earlier.it_rb.rb_remaining > 0 then
                      earlier.it_rb.rb_results.(earlier.it_slot) <-
                        Some (result_of_item earlier)
                  end)
                rec_.tr_accesses;
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
          if not is_write then row.rw_readers <- it :: row.rw_readers;
          rec_.tr_accesses <- it :: rec_.tr_accesses;
          if sendable t it then release t it else add_pending it)
        ops
    end
    end
  end

(* --- smart retry (Alg 4.4) ------------------------------------------ *)

let smart_retry t ~src ~wire ~ts:t' =
  let ok =
    match Hashtbl.find_opt t.txns wire with
    | None -> Hashtbl.find_opt t.decided wire = Some true
    | Some rec_ ->
      let reposition it =
        let ver = it.it_ver in
        (* the first later version created by another transaction: the
           transaction's own writes move together with the retry, so
           they never block it (cross-shot read-modify-write would
           otherwise self-reject forever) *)
        let rec next_other v =
          match Store.chain_next it.it_row.rw_chain v with
          | Some n when n.Store.writer = wire -> next_other n
          | other -> other
        in
        let next_ok =
          match next_other ver with
          | Some next -> Ts.(next.Store.tw > t')
          | None -> true
        in
        if not next_ok then false
        else if it.it_is_write && not (Ts.equal ver.Store.tw ver.Store.tr) then
          false (* the created version has been read: cannot move *)
        else begin
          if it.it_is_write then begin
            ver.Store.tw <- t';
            ver.Store.tr <- t';
            t.latest_write_tw <- Ts.max t.latest_write_tw t'
          end
          else ver.Store.tr <- Ts.max ver.Store.tr t';
          true
        end
      in
      List.for_all reposition (List.rev rec_.tr_accesses)
  in
  if ok then t.n_sr_ok <- t.n_sr_ok + 1 else t.n_sr_fail <- t.n_sr_fail + 1;
  t.ctx.send ~dst:src
    (Msg.Retry_reply { sr_wire = wire; sr_server = t.ctx.self; sr_ok = ok })

(* --- client-failure recovery (§4.6) --------------------------------- *)

let overlap results = results <> [] && fst (Msg.safeguard results)

let start_recovery t ~wire ~cohorts =
  if
    (not (Hashtbl.mem t.recovering wire))
    && not (Hashtbl.mem t.decided wire)
  then begin
    t.n_recoveries <- t.n_recoveries + 1;
    Hashtbl.add t.recovering wire
      { rc_waiting = List.length cohorts; rc_infos = [] };
    List.iter
      (fun cohort -> t.ctx.send ~dst:cohort (Msg.Recover_query { rq_wire = wire }))
      cohorts
  end

let answer_recover_query t ~src ~wire =
  let known, complete, pairs, decided =
    match Hashtbl.find_opt t.txns wire with
    | Some rec_ ->
      (* Prefer the pairs already released to the client (so the backup
         reproduces the client's own safeguard inputs exactly); fall
         back to the live version pairs if some are still withheld. *)
      let released =
        List.concat_map
          (fun rb -> Array.to_list rb.rb_results |> List.filter_map Fun.id)
          rec_.tr_rbs
      in
      let total =
        List.fold_left (fun acc rb -> acc + Array.length rb.rb_results) 0 rec_.tr_rbs
      in
      (* The backup may only commit from the exact pairs the client saw
         (the released reply cells); a transaction with withheld
         replies is aborted conservatively — committing from live
         version state could diverge from the (possibly just slow)
         client's own safeguard and resurrect an aborted attempt. *)
      let all_released = List.length released = total && total > 0 in
      let complete =
        all_released && rec_.tr_saw_last && rec_.tr_received >= rec_.tr_expected
      in
      (true, complete, released, None)
    | None ->
      (match Hashtbl.find_opt t.decided wire with
       | Some d -> (true, true, [], Some d)
       | None -> (false, false, [], None))
  in
  t.ctx.send ~dst:src
    (Msg.Recover_info
       {
         ri_wire = wire;
         ri_server = t.ctx.self;
         ri_known = known;
         ri_complete = complete;
         ri_pairs = pairs;
         ri_decided = decided;
       })

let handle_recover_info t ~wire (info : rinfo) =
  match Hashtbl.find_opt t.recovering wire with
  | None -> ()
  | Some st
    when List.exists
           (fun i -> Types.node_eq i.rf_server info.rf_server)
           st.rc_infos
    ->
    () (* duplicate delivery of a cohort's answer *)
  | Some st ->
    st.rc_infos <- info :: st.rc_infos;
    st.rc_waiting <- st.rc_waiting - 1;
    if st.rc_waiting = 0 then begin
      Hashtbl.remove t.recovering wire;
      let infos = st.rc_infos in
      let all_complete = List.for_all (fun i -> i.rf_known && i.rf_complete) infos in
      let pairs = List.concat_map (fun i -> i.rf_pairs) infos in
      let cohorts = List.map (fun i -> i.rf_server) infos in
      let broadcast commit =
        List.iter
          (fun cohort ->
            t.ctx.send ~dst:cohort (Msg.Decide { d_wire = wire; d_commit = commit }))
          cohorts
      in
      match List.find_map (fun i -> i.rf_decided) infos with
      | Some d -> broadcast d (* a cohort already applied a decision *)
      | None ->
        if all_complete then
          (* identical inputs to the client's own safeguard: the
             decision is deterministic, so a slow-but-alive client will
             reach the same verdict *)
          broadcast (overlap pairs)
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
             t.ctx.timer ~delay:timeout (fun () ->
                 if not (Hashtbl.mem t.decided wire) then
                   start_recovery t ~wire ~cohorts)
           | None -> ())
    end

(* --- message dispatch ------------------------------------------------ *)

let handle t ~src msg =
  match msg with
  | Msg.Exec x -> if x.x_ro then exec_read_only t ~src x else exec_read_write t ~src x
  | Msg.Decide { d_wire; d_commit } -> apply_decision t ~wire:d_wire ~commit:d_commit
  | Msg.Retry { sr_wire; sr_ts } -> smart_retry t ~src ~wire:sr_wire ~ts:sr_ts
  | Msg.Recover_nudge { rn_wire; rn_cohorts } ->
    (match Hashtbl.find_opt t.decided rn_wire with
     | Some d ->
       (* the decision already reached the backup: re-broadcast it *)
       t.ctx.send ~dst:src (Msg.Decide { d_wire = rn_wire; d_commit = d })
     | None -> start_recovery t ~wire:rn_wire ~cohorts:rn_cohorts)
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
