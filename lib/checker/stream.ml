(* Streaming serializability checker: an online incremental
   Real-time Serialization Graph with windowed garbage collection.

   It consumes the history {!Rsg} checks post hoc *as the run produces
   it*, in nondecreasing simulation time: [observe_version] (a server
   committed (key, vid) between its nearest committed neighbours; the
   initial version is announced with writer 0) and [observe_commit]
   (a client observed a commit: the Rsg record). Per-key committed
   orders are rebuilt from the insertions; the order is total per key,
   so edges derived from commit-time adjacency are always sound.

   Retirement (the GC window invariant, docs/checker.md): the
   watermark W lower-bounds the start of every commit not yet
   observed; each epoch clamps it to the earliest start among live
   records still awaiting announcements. After a clean epoch cycle
   check, a transaction t with finish(t) < W and nothing unresolved
   retires: every later transaction u has start(u) >= W > finish(t),
   so t -> u is a guaranteed real-time edge and any *future* edge into
   t closes a 2-cycle, reported at once without t's record — ww into t
   (a version committed right before t's: timestamp inversion), rw
   into t (a read of a version t overwrote: stale read), wr into t (the
   write record of a version a retired reader read). Edges out of a
   retired transaction need no bookkeeping: a cycle through them must
   re-enter the retired set. Versions whose writer and successor's
   writer both retired, with no live readers, are pruned.

   State is flat: one word per vid ([words], indexed from the first
   vid set; far outliers go to a small table) saying whether the vid
   is unknown, live at an arena slot, pruned (payload: its successor's
   writer, the stale-read evidence) or a closed tail (payload: its own
   writer, retired or initial); version entries in a recycled
   struct-of-arrays slot arena, linked per key by slot number,
   counting live readers; each live record's reads and writes are
   (key, vid) pairs in two flat int arrays, compacted with the records
   at each sweep. A key's order is dropped once only a settled
   tail is left; the tail is reopened, exactly as it was closed, by
   the next read, write record or announcement that names it.

   With [~strict:false] the checker answers plain serializability:
   without real-time edges no transaction is ever safe to retire, so
   commit records go straight into an {!Rsg}, announcements only link
   each vid word to its successor in the key's order, and [finalize]
   hands both to [Rsg.check ~strict:false], making the two checkers
   equal field for field. *)

open Kernel

type times = { start : float; finish : float }  (* all-float: unboxed *)

(* A record's writes, then its reads, are the (key, vid) pairs at
   [t_off ..] of the flat [keys] / [vids] arrays, appended in record
   order. *)
type rec_ = {
  t_txn : int;
  t_time : times;
  mutable t_off : int;
  t_nw : int;
  t_nr : int;
  mutable t_pending : int;  (* reads of not-yet-announced versions *)
  mutable t_unobserved : int;  (* writes not yet announced by a server *)
  mutable t_node : int;  (* node number in the epoch graph ... *)
  mutable t_check : int;  (* ... of the check with this serial *)
}

type stats = {
  commits : int;
  epochs : int;
  retired : int;
  live_high_water : int;
  pending_high_water : int;
  stale_residue : int;
}

let none = -1  (* no slot, no transaction *)
let unclaimed = -1  (* writer not yet known *)

(* Vid words: tag in the low two bits, payload above: 0 unknown,
   1 live (slot), 2 pruned (successor's writer), 3 closed tail (own
   writer). The serializable mode uses its own two tags (see
   [link_vid]). *)
let unknown = 0
let live s = (s lsl 2) lor 1
let pruned w = (w lsl 2) lor 2
let closed w = (w lsl 2) lor 3

(* The server announces versions under per-attempt wire ids, so an
   entry's writer (0 = initial, [unclaimed] until then) comes from the
   commit record listing (key, vid) among its writes, exactly as
   {!Rsg} learns writers. Mid-run epoch checks skip an unclaimed
   writer's edges (dropping edges never creates a false cycle); the
   final check collapses it to the initial writer 0, as Rsg does. *)
type t = {
  serializable : Rsg.t option;  (* [~strict:false]: the whole history *)
  epoch_len : int;
  watermark : unit -> float;
  on_epoch : (live:int -> retired:int -> unit) option;
  mutable verdict : Verdict.t;  (* sticky: first violation wins *)
  live : rec_ Inttbl.t;  (* txn -> its record, keyed by [t_txn] *)
  mutable recs : rec_ array;  (* live records, oldest first *)
  mutable n_recs : int;
  mutable keys : int array;  (* the live records' (key, vid) pairs *)
  mutable vids : int array;
  mutable n_pairs : int;
  orders : int Inttbl.t;
      (* key -> head slot of its order (serializable: its first vid);
         [none] when the key has no order *)
  mutable words : int array;  (* vid - base -> vid word *)
  mutable base : int;
  outliers : int Inttbl.t;  (* vid -> word, outside [words] *)
  (* slot arena; [none] links; free slots chain through [a_next] *)
  mutable a_vid : int array;
  mutable a_writer : int array;
  mutable a_prev : int array;
  mutable a_next : int array;
  mutable a_readers : int array;  (* live readers attached *)
  mutable a_rreader : int array;
      (* a reader that retired before this version's writer record
         arrived (instant wr-into-retired evidence) *)
  mutable a_rsucc : int array;
      (* the retired writer of the nearest committed successor, seen
         at announcement time before the entry was claimed (instant
         ww-into-retired evidence, parked so the witness names the
         transaction, not the wire id) *)
  mutable a_swept : int array;  (* epoch whose sweep last walked this head *)
  mutable free : int;
  mutable used : int;
  pend_reads : int list Inttbl.t;  (* vid -> waiting readers, newest first *)
  pend_writes : rec_ Inttbl.t;  (* vid -> writer awaiting announce *)
  g : Graph.t;  (* the epoch graph, reused *)
  zero : rec_;  (* the initial writer's node *)
  mutable n_checks : int;
  mutable n_seen : int;
  mutable since_epoch : int;
  mutable n_epochs : int;
  mutable n_retired : int;
  mutable n_pruned : int;
  mutable hw : int;
  mutable pending_hw : int;
}

let none_rec =
  {
    t_txn = min_int;
    t_time = { start = Float.nan; finish = Float.nan };
    t_off = 0;
    t_nw = 0;
    t_nr = 0;
    t_pending = 0;
    t_unobserved = 0;
    t_node = none;
    t_check = none;
  }

let create ?(strict = true) ?(epoch = 1024) ?(watermark = fun () -> Float.neg_infinity)
    ?on_epoch () =
  {
    serializable = (if strict then None else Some (Rsg.create ()));
    epoch_len = max 1 epoch;
    watermark;
    on_epoch;
    verdict = Verdict.Ok;
    live = Inttbl.keyed ~key:(fun r -> r.t_txn) ~empty:none_rec;
    recs = [||];
    n_recs = 0;
    keys = [||];
    vids = [||];
    n_pairs = 0;
    orders = Inttbl.create ~empty:none;
    words = [||];
    base = 0;
    outliers = Inttbl.create ~empty:unknown;
    a_vid = [||];
    a_writer = [||];
    a_prev = [||];
    a_next = [||];
    a_readers = [||];
    a_rreader = [||];
    a_rsucc = [||];
    a_swept = [||];
    free = none;
    used = 0;
    pend_reads = Inttbl.create ~empty:[];
    pend_writes = Inttbl.create ~empty:none_rec;
    g = Graph.create ();
    zero = { none_rec with t_txn = 0 };
    n_checks = 0;
    n_seen = 0;
    since_epoch = 0;
    n_epochs = 0;
    n_retired = 0;
    n_pruned = 0;
    hw = 0;
    pending_hw = 0;
  }

let violation t a = if Verdict.is_ok t.verdict then t.verdict <- Verdict.Violation a

let cycle2 t a b =
  (* ncc-lint: allow R18 — violation path only: the two-element witness list ends the run *)
  violation t (Verdict.Cycle { strict = true; witness = [ a; b ] })

(* --- vid words --------------------------------------------------------- *)

let word t vid =
  let i = vid - t.base in
  if i >= 0 && i < Array.length t.words then t.words.(i) else Inttbl.find t.outliers vid

(* Vids are dense within a run (one counter from 1 after
   [Mvstore.Store.reset_vids]), so the words are one array from the
   first vid set; a vid below it or far past its end (hand-built and
   replayed histories) goes to [outliers] instead of stretching the
   array to O(max vid). *)
let set_word t vid w =
  let len = Array.length t.words in
  if len = 0 then t.base <- vid;
  let i = vid - t.base in
  if i >= 0 && i < len then t.words.(i) <- w
  else if i >= 0 && i < (2 * len) + 4096 then begin
    let b = Array.make (max 256 (max (i + 1) (2 * len))) unknown in
    Array.blit t.words 0 b 0 len;
    t.words <- b;
    b.(i) <- w
  end
  else Inttbl.replace t.outliers vid w

(* The live slot of [vid], or [none]. *)
let slot t vid =
  let w = word t vid in
  if w land 3 = 1 then w asr 2 else none

(* --- slot arena -------------------------------------------------------- *)

let grow a =
  let b = Array.make (max 64 (2 * Array.length a)) none in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc t vid writer =
  if t.free = none then begin
    if t.used = Array.length t.a_vid then begin
      t.a_vid <- grow t.a_vid;
      t.a_writer <- grow t.a_writer;
      t.a_prev <- grow t.a_prev;
      t.a_next <- grow t.a_next;
      t.a_readers <- grow t.a_readers;
      t.a_rreader <- grow t.a_rreader;
      t.a_rsucc <- grow t.a_rsucc;
      t.a_swept <- grow t.a_swept
    end;
    t.a_next.(t.used) <- none;
    t.free <- t.used;
    t.used <- t.used + 1
  end;
  let s = t.free in
  t.free <- t.a_next.(s);
  t.a_vid.(s) <- vid;
  t.a_writer.(s) <- writer;
  t.a_prev.(s) <- none;
  t.a_next.(s) <- none;
  t.a_readers.(s) <- 0;
  t.a_rreader.(s) <- none;
  t.a_rsucc.(s) <- none;
  t.a_swept.(s) <- none;
  s

let release t s =
  t.a_next.(s) <- t.free;
  t.free <- s

(* A transaction is retired when its record was observed and it is no
   longer in the live set. Initial versions (writer 0) never retire. *)
let slot_retired t s =
  let w = t.a_writer.(s) in
  w <> 0 && w <> unclaimed && not (Inttbl.mem t.live w)

let insert_after t key p s =
  if p = none then begin
    let h = Inttbl.find t.orders key in
    t.a_next.(s) <- h;
    if h <> none then t.a_prev.(h) <- s;
    Inttbl.replace t.orders key s
  end
  else begin
    let n = t.a_next.(p) in
    t.a_prev.(s) <- p;
    t.a_next.(s) <- n;
    if n <> none then t.a_prev.(n) <- s;
    t.a_next.(p) <- s
  end

let rec last_slot t s = if t.a_next.(s) = none then s else last_slot t t.a_next.(s)

(* Reopen a closed tail exactly as it was closed: settled, no parked
   evidence. Announcements name their nearest committed neighbours, so
   a key with a closed tail only has an order again when a version was
   installed behind pruned neighbours, before the tail — which stays
   last. *)
let reopen t key vid w =
  let s = alloc t vid w in
  set_word t vid (live s);
  let h = Inttbl.find t.orders key in
  if h = none then Inttbl.replace t.orders key s
  else begin
    let l = last_slot t h in
    t.a_next.(l) <- s;
    t.a_prev.(s) <- l
  end;
  s

(* The live slot of [vid] for an update, reopening a closed tail. *)
let open_slot t key vid =
  let w = word t vid in
  match w land 3 with 1 -> w asr 2 | 3 -> reopen t key vid (w asr 2) | _ -> none

(* Instant rw/ww-into-retired check: the writer of [s]'s nearest
   committed successor if it retired, else [none]. *)
let succ_retired t s =
  let n = t.a_next.(s) in
  if n <> none && slot_retired t n then t.a_writer.(n) else none

(* Attach a live reader to the version it read, or report the stale
   read if the version's successor is already retired (the reader was
   observed after that retirement, so it started after the successor's
   writer finished: rw edge plus guaranteed rt edge = cycle). *)
let attach_read t rdr s =
  let w = succ_retired t s in
  if w <> none then cycle2 t rdr w else t.a_readers.(s) <- t.a_readers.(s) + 1

(* The retired writer whose version [nv] a new version is installed
   right before, or [none]: a pruned vid remembers its successor's
   writer; a closed tail is reopened to keep the order exact. *)
let succ_writer t key nv =
  let w = word t nv in
  if w land 3 = 2 then w asr 2
  else
    let s = open_slot t key nv in
    if s <> none && slot_retired t s then t.a_writer.(s) else none

(* Serializable mode keeps only the orders: a vid's word is tag 1 with
   its successor's vid, or [last]; [orders] holds each key's first vid.
   An unknown [prev] inserts at the head, as [open_slot] does. *)
let followed_by v = (v lsl 2) lor 1
let last = 2

let link_vid t key vid prev =
  if prev <> Types.no_vid && word t prev <> unknown then begin
    set_word t vid (word t prev);
    set_word t prev (followed_by vid)
  end
  else begin
    let h = Inttbl.find t.orders key in
    set_word t vid (if h = none then last else followed_by h);
    Inttbl.replace t.orders key vid
  end

let linked_vids t first =
  let rec go acc vid =
    let w = word t vid in
    if w = last then List.rev (vid :: acc) else go (vid :: acc) (w asr 2)
  in
  go [] first

(* Readers are listed newest first; resolve the oldest first. *)
let rec resolve_reads t s = function
  | [] -> ()
  | rdr :: older ->
    resolve_reads t s older;
    let r = Inttbl.find t.live rdr in
    if r != none_rec then begin
      r.t_pending <- r.t_pending - 1;
      attach_read t rdr s
    end

let observe_version t ~key ~vid ~writer ~prev ~next =
  (* a duplicated Decide can re-announce a vid; only the first counts *)
  if Verdict.is_ok t.verdict && word t vid = unknown then begin
    match t.serializable with
    | Some _ -> link_vid t key vid prev
    | None ->
      let s = alloc t vid (if writer = 0 then 0 else unclaimed) in
      (* protocols that decide client-side may report the commit before
         the server applies it; the write was parked until now *)
      let r = Inttbl.find t.pend_writes vid in
      if r != none_rec then begin
        Inttbl.remove t.pend_writes vid;
        t.a_writer.(s) <- r.t_txn;
        r.t_unobserved <- r.t_unobserved - 1
      end;
      insert_after t key (if prev = Types.no_vid then none else open_slot t key prev) s;
      set_word t vid (live s);
      (* instant ww-into-retired: committed between a retired writer's
         version and its predecessors = timestamp inversion. Sound
         because the retirement gate in [run_epoch] guarantees the
         retired successor's writer finished before this writer started,
         whether this entry's record is already here (claimed from
         pend_writes), still in flight, or arrives later. The witness
         must name the writing *transaction*, so an unclaimed entry
         parks the evidence ([a_rsucc]) until its record claims it in
         [observe_commit]. *)
      (if next <> Types.no_vid then
         let w = succ_writer t key next in
         let own = t.a_writer.(s) in
         if w <> none then
           if own = unclaimed then t.a_rsucc.(s) <- w else if own <> 0 then cycle2 t own w);
      (* resolve readers that were parked on this vid, oldest first *)
      match Inttbl.find t.pend_reads vid with
      | [] -> ()
      | waiting ->
        Inttbl.remove t.pend_reads vid;
        resolve_reads t s waiting
  end

(* --- epoch check over the live set ------------------------------------- *)

(* A record's node in the current epoch graph, numbered at first
   mention (the order {!Graph.edge} would give). *)
let node t r =
  if r.t_check <> t.n_checks then begin
    r.t_check <- t.n_checks;
    r.t_node <- Graph.fresh t.g r.t_txn
  end;
  r.t_node

(* Writer node for slot [s]. Retired writers yield no node — any edge
   touching them was already covered (incoming edges by the instant
   rules, outgoing edges by the retirement theorem). Unclaimed writers
   are skipped mid-run and collapse to the initial writer 0 in the
   final check, exactly as in {!Rsg}. *)
let writer_rec t ~final s =
  let w = t.a_writer.(s) in
  if w = 0 || (w = unclaimed && final) then t.zero
  else if w = unclaimed then none_rec
  else Inttbl.find t.live w

let link t a b =
  if a != none_rec && b != none_rec && a.t_txn <> b.t_txn then begin
    let ia = node t a in
    let ib = node t b in
    Graph.link t.g ia ib
  end

(* Edges of one record's reads (wr from the version's writer) or
   writes (ww from the predecessor's writer), plus the rw / ww edge
   to the successor's writer. Every edge between two representable
   nodes has a live, claimed endpoint whose own record reaches it, so
   the epoch check is O(live), independent of the keys ever touched. *)
let edges t ~final ~write r i stop =
  for i = i to stop - 1 do
    let s = slot t t.vids.(i) in
    if s <> none then begin
      let src = if write then t.a_prev.(s) else s in
      if src <> none then link t (writer_rec t ~final src) r;
      let n = t.a_next.(s) in
      if n <> none then link t r (writer_rec t ~final n)
    end
  done

(* Greatest i with finish(arr.(i)) < start(r), or -1. *)
let last_before arr r =
  let lo = ref (-1) and hi = ref (Array.length arr - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if arr.(mid).t_time.finish < r.t_time.start then lo := mid else hi := mid - 1
  done;
  if !lo >= 0 && arr.(!lo).t_time.finish < r.t_time.start then !lo else none

let live_graph t ~final =
  Graph.clear t.g;
  t.n_checks <- t.n_checks + 1;
  let n = t.n_recs in
  for i = n - 1 downto 0 do
    let r = t.recs.(i) in
    ignore (node t r);
    let rd = r.t_off + r.t_nw in
    edges t ~final ~write:false r rd (rd + r.t_nr);
    edges t ~final ~write:true r r.t_off rd
  done;
  (* real-time edges over the live set, compressed with the same
     commit-event chain as Rsg (epoch-local chain numbering) *)
  if n > 0 then begin
    let arr = Array.init n (fun i -> t.recs.(n - 1 - i)) in
    Array.stable_sort (fun a b -> Float.compare a.t_time.finish b.t_time.finish) arr;
    let c0 = Graph.fresh t.g (-1) in
    for i = 0 to n - 1 do
      Graph.link t.g (node t arr.(i)) (c0 + i);
      if i + 1 < n then begin
        ignore (Graph.fresh t.g (-(i + 2)));
        Graph.link t.g (c0 + i) (c0 + i + 1)
      end
    done;
    for i = n - 1 downto 0 do
      let j = last_before arr t.recs.(i) in
      if j <> none then Graph.link t.g (c0 + j) (node t t.recs.(i))
    done
  end

let cycle_check t ~final =
  live_graph t ~final;
  match Graph.find_cycle t.g with
  | None -> true
  | Some witness ->
    violation t (Verdict.Cycle { strict = true; witness });
    false

(* --- retirement and pruning -------------------------------------------- *)

let retire_one t r =
  Inttbl.remove t.live r.t_txn;
  t.n_retired <- t.n_retired + 1;
  for i = r.t_off + r.t_nw to r.t_off + r.t_nw + r.t_nr - 1 do
    let s = slot t t.vids.(i) in
    if s <> none then begin
      t.a_readers.(s) <- t.a_readers.(s) - 1;
      if t.a_writer.(s) = unclaimed && t.a_rreader.(s) = none then t.a_rreader.(s) <- r.t_txn
    end
  done

(* An entry is settled when its writer retired (or is initial) and no
   live or retired-before-the-claim reader holds it. *)
let settled t e =
  (t.a_writer.(e) = 0 || slot_retired t e) && t.a_readers.(e) = 0 && t.a_rreader.(e) = none

(* Prune settled versions whose successor's writer retired. The vid
   word keeps the successor's writer as stale-read evidence. *)
let rec prune_from t key e =
  if e <> none then begin
    let s = t.a_next.(e) in
    if s <> none && settled t e && slot_retired t s then begin
      let p = t.a_prev.(e) in
      if p = none then Inttbl.replace t.orders key s else t.a_next.(p) <- s;
      t.a_prev.(s) <- p;
      set_word t t.a_vid.(e) (pruned t.a_writer.(s));
      t.n_pruned <- t.n_pruned + 1;
      release t e
    end;
    prune_from t key s
  end

(* An entry's prunability only changes when a transaction touching its
   key retires, so each sweep walks just those keys, once each. A key
   left with only a settled tail drops its order: the tail's word
   becomes [closed], and the vid is reopened on demand. *)
let prune_key t key =
  let h = Inttbl.find t.orders key in
  if h <> none && t.a_swept.(h) <> t.n_epochs then begin
    prune_from t key h;
    let h = Inttbl.find t.orders key in
    if t.a_next.(h) = none && settled t h && t.a_rsucc.(h) = none then begin
      Inttbl.remove t.orders key;
      set_word t t.a_vid.(h) (closed t.a_writer.(h));
      release t h
    end
    else t.a_swept.(h) <- t.n_epochs
  end

(* Compact the live records and their pairs, pruning the keys of the
   retired ones. A record's pairs only move down, over pairs already
   swept. *)
let sweep t =
  let k = ref 0 and p = ref 0 in
  for i = 0 to t.n_recs - 1 do
    let r = t.recs.(i) in
    let n = r.t_nw + r.t_nr in
    if Inttbl.mem t.live r.t_txn then begin
      t.recs.(!k) <- r;
      incr k;
      Array.blit t.keys r.t_off t.keys !p n;
      Array.blit t.vids r.t_off t.vids !p n;
      r.t_off <- !p;
      p := !p + n
    end
    else
      for j = r.t_off to r.t_off + n - 1 do
        prune_key t t.keys.(j)
      done
  done;
  Array.fill t.recs !k (t.n_recs - !k) none_rec;
  t.n_recs <- !k;
  t.n_pairs <- !p

(* Retirement gate: the harness watermark only bounds the starts of
   transactions whose commit is still *unobserved*. A live record with
   reads parked on unannounced versions or writes awaiting a server
   announcement may have started arbitrarily earlier, so clamp the
   watermark to the earliest such start: nothing retires past a parked
   record, and the instant retired-edge rules that fire when its
   announcements finally resolve only ever claim real-time edges that
   genuinely hold (retired finish < gated watermark <= parked start). *)
let rec clamp t i wm =
  if i < 0 then wm
  else
    let r = t.recs.(i) in
    clamp t (i - 1)
      (if r.t_pending > 0 || r.t_unobserved > 0 then Float.min wm r.t_time.start else wm)

let run_epoch t =
  t.since_epoch <- 0;
  t.n_epochs <- t.n_epochs + 1;
  if cycle_check t ~final:false then begin
    let wm = clamp t (t.n_recs - 1) (t.watermark ()) in
    let any = ref false in
    for i = t.n_recs - 1 downto 0 do
      let r = t.recs.(i) in
      if r.t_time.finish < wm && r.t_pending = 0 && r.t_unobserved = 0 then begin
        retire_one t r;
        any := true
      end
    done;
    if !any then sweep t;
    match t.on_epoch with
    | Some f -> f ~live:(Inttbl.length t.live) ~retired:t.n_retired
    | None -> ()
  end

let push_rec t r =
  if t.n_recs = Array.length t.recs then begin
    let b = Array.make (max 64 (2 * t.n_recs)) none_rec in
    Array.blit t.recs 0 b 0 t.n_recs;
    t.recs <- b
  end;
  t.recs.(t.n_recs) <- r;
  t.n_recs <- t.n_recs + 1

let push_pair t key vid =
  let n = t.n_pairs in
  if n = Array.length t.keys then begin
    t.keys <- grow t.keys;
    t.vids <- grow t.vids
  end;
  t.keys.(n) <- key;
  t.vids.(n) <- vid;
  t.n_pairs <- n + 1

(* Append [r]'s writes and claim their versions. *)
let rec claim_writes t r = function
  | [] -> ()
  | (key, vid) :: tl ->
    push_pair t key vid;
    let s = open_slot t key vid in
    if s = none then begin
      (* server announcement still in flight *)
      r.t_unobserved <- r.t_unobserved + 1;
      Inttbl.replace t.pend_writes vid r
    end
    else begin
      let txn = r.t_txn in
      t.a_writer.(s) <- txn;
      (* a reader of this version retired before we learned who
         wrote it: wr edge into the retired set *)
      if t.a_rreader.(s) <> none then cycle2 t txn t.a_rreader.(s);
      (* our version's successor was retired at announcement time
         (parked evidence) or retired while the record was in
         flight: ww edge into the retired set *)
      let w = if t.a_rsucc.(s) <> none then t.a_rsucc.(s) else succ_retired t s in
      if w <> none then cycle2 t txn w
    end;
    claim_writes t r tl

(* Append [r]'s reads and attach them, or park them on versions not
   yet announced. *)
let rec attach_reads t r = function
  | [] -> ()
  | (key, vid, _) :: tl ->
    push_pair t key vid;
    let txn = r.t_txn and w = word t vid in
    (match w land 3 with
     | 2 -> cycle2 t txn (w asr 2)
     | 0 ->
       r.t_pending <- r.t_pending + 1;
       (* ncc-lint: allow R18 — one cell per read of a version whose announcement is still in flight; the multi-binding Hashtbl it replaces paid a 4-word bucket for the same read *)
       Inttbl.replace t.pend_reads vid (txn :: Inttbl.find t.pend_reads vid);
       let n_pend = Inttbl.length t.pend_reads in
       if n_pend > t.pending_hw then t.pending_hw <- n_pend
     | _ -> attach_read t txn (open_slot t key vid));
    attach_reads t r tl

let observe_commit t ~txn ~start ~finish ~reads ~writes =
  t.n_seen <- t.n_seen + 1;
  match t.serializable with
  | Some h ->
    Rsg.record_commit h ~txn ~start ~finish
      (* ncc-lint: allow R17 — serializable mode only: a pair and a cell per read, which the post-hoc Rsg keeps for the run *)
      ~reads:(List.map (fun (key, vid, _) -> (key, vid)) reads)
      ~writes
  | None when not (Verdict.is_ok t.verdict) -> ()
  | None ->
    let r =
      {
        t_txn = txn;
        t_time = { start; finish };
        t_off = t.n_pairs;
        t_nw = List.length writes;
        t_nr = List.length reads;
        t_pending = 0;
        t_unobserved = 0;
        t_node = none;
        t_check = none;
      }
    in
    Inttbl.replace t.live txn r;
    push_rec t r;
    if Inttbl.length t.live > t.hw then t.hw <- Inttbl.length t.live;
    claim_writes t r writes;
    attach_reads t r reads;
    t.since_epoch <- t.since_epoch + 1;
    if t.since_epoch >= t.epoch_len then run_epoch t

(* --- finalize ---------------------------------------------------------- *)

(* Reads still unresolved at the end of the run are dirty: the vid
   appears in no committed order, matching Rsg's definition. Report
   the same one Rsg would (first in newest-first record order). *)
let rec unknown_from t i stop =
  if i >= stop || word t t.vids.(i) = unknown then i else unknown_from t (i + 1) stop

let rec first_dirty t i =
  if i < 0 then None
  else
    let r = t.recs.(i) in
    let stop = r.t_off + r.t_nw + r.t_nr in
    let j = unknown_from t (r.t_off + r.t_nw) stop in
    if j < stop then Some (Verdict.Dirty_read { txn = r.t_txn; key = t.keys.(j); vid = t.vids.(j) })
    else first_dirty t (i - 1)

let finalize t =
  (if Verdict.is_ok t.verdict then
     match t.serializable with
     | None ->
       (match first_dirty t (t.n_recs - 1) with Some a -> violation t a | None -> ());
       if Verdict.is_ok t.verdict then ignore (cycle_check t ~final:true)
     | Some rsg ->
       Inttbl.iter_sorted
         (fun key first -> Rsg.record_version_order rsg key (linked_vids t first))
         t.orders;
       t.verdict <- Rsg.check rsg ~strict:false);
  t.verdict

let stats t =
  {
    commits = t.n_seen;
    epochs = t.n_epochs;
    retired = t.n_retired;
    live_high_water = t.hw;
    pending_high_water = t.pending_hw;
    stale_residue = t.n_pruned;
  }
