(* The multi-versioned key-value store of Algorithm 4.2.

   Each key holds a chain of versions ordered by creation. A version
   carries the (t_w, t_r) timestamp pair the paper's refinement rules
   maintain:

     - a write creates a version with t_w = t_r = max(t, curr.t_r + 1);
     - a read bumps the current version's t_r to max(t, curr.t_r).

   Versions are "undecided" until the creating transaction commits;
   aborted versions are unlinked immediately. The same store also
   serves the baseline protocols, which need timestamp-ordered insertion
   (MVTO) and committed-snapshot reads; those entry points live here too
   so that every protocol exercises one storage substrate.

   A key that holds only its initial version has no chain: the record
   sits alone in a flat per-store table, and every read entry point
   answers from it. Most keys of a read-heavy workload are never
   written, so they cost one table slot and one record. The chain is
   built around that same record when the key takes a second version
   or when a protocol asks for a chain handle; a key is in at most one
   of the two tables.

   Chains are stored as growable arrays, oldest first (slot 0 is the
   initial version, the chain terminator). Both write styles keep a
   chain sorted by t_w: NCC writes append with t_w > curr.t_r >= every
   existing t_w, and MVTO's [insert_ordered] places its version at the
   t_w upper bound. That invariant is what lets [version_at] binary
   search on t_w instead of walking a list, and it turns the
   most-recent lookup on every read into a single array access.

   Version ids are unique across all store instances of a run (a run
   executes on one domain; the counter is domain-local so parallel
   sweeps cannot race on it), which is what lets the checker correlate
   reads and writes across servers. *)

open Kernel

type status = Undecided | Committed

type version = {
  vid : int;
  value : Types.value;
  mutable tw : Ts.t;
  mutable tr : Ts.t;
  mutable status : status;
  writer : int;  (* id of the creating transaction; 0 = initial version *)
  mutable parked : (version -> unit) list;
      (* MVTO readers waiting for this version's decision *)
}

(* Oldest first; [vs.(0)] is the initial version. Invariant: the live
   prefix [vs.(0 .. n-1)] is sorted by [tw] (nondecreasing). *)
type chain = {
  key : Types.key;
  mutable vs : version array;
  mutable n : int;
  mutable written_next : chain;
      (* link of the store's written list (the chains that ever held a
         version beyond the initial one); the list's last chain links
         to itself, and a chain not on the list links to the table's
         empty chain *)
}

type t = {
  tbl : chain Inttbl.t;
      (* keyed by [chain.key]; its one empty chain has no versions *)
  initial : version Inttbl.t;
      (* chain-less keys: key -> its initial version, the key's only
         version (pair layout; its empty value is a version of no key) *)
  mutable written : chain;  (* head of the written list, or the empty chain *)
  mutable created : int;  (* versions created by this store (stats) *)
  mutable on_commit : (Types.key -> version -> prev:int -> next:int -> unit) option;
      (* streaming-checker hook: fired for every committed version
         (and each key's initial version) with the vids of its nearest
         *committed* chain neighbours at commit time, or [Types.no_vid] *)
}

(* Vid source is domain-local: Runner.run calls [reset_vids] at the
   start of every run, so vids are a pure function of the run and
   parallel sweeps (one run per domain at a time) cannot race. *)
let vid_counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_vids () = Domain.DLS.get vid_counter := 0

let fresh_vid () =
  let c = Domain.DLS.get vid_counter in
  incr c;
  !c

(* A chain bound to no key, holding no versions: the empty value of
   tables keyed by chain (each caller gets its own). *)
let empty_chain () =
  let rec c = { key = min_int; vs = [||]; n = 0; written_next = c } in
  c

(* A key's initial version: committed, written by no transaction. *)
let initial_version vid =
  { vid; value = 0; tw = Ts.zero; tr = Ts.zero; status = Committed; writer = 0; parked = [] }

let create () =
  let empty = empty_chain () in
  {
    tbl = Inttbl.keyed ~key:(fun c -> c.key) ~empty;
    initial = Inttbl.create ~empty:(initial_version 0 (* vids start at 1 *));
    written = empty;
    created = 0;
    on_commit = None;
  }

(* Put [c] on the written list when it first takes a version beyond
   its initial one: [gc] visits only these chains, as a chain that
   never held a write has nothing to drop. *)
let note_written t c =
  let unlisted = Inttbl.absent t.tbl in
  if c.written_next == unlisted then begin
    c.written_next <- (if t.written == unlisted then c else t.written);
    t.written <- c
  end

(* A chain's committed versions, oldest first. *)
let committed_of c =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if c.vs.(i).status = Committed then c.vs.(i) :: acc else acc)
  in
  collect (c.n - 1) []

(* Every key's committed versions, oldest first, chained and chain-less
   keys merged in descending key order (the order in which folding
   over ascending keys conses them). *)
let committed_by_key t =
  let chained = Inttbl.fold_sorted (fun key c acc -> (key, committed_of c) :: acc) t.tbl [] in
  let bare = Inttbl.fold_sorted (fun key v acc -> (key, [ v ]) :: acc) t.initial [] in
  List.merge (fun (a, _) (b, _) -> Int.compare b a) chained bare

(* Installing the hook also replays the committed versions of every
   key that already exists: a protocol may touch its store during
   server construction, before the harness can install the hook, and
   those versions would otherwise never be announced — parking their
   readers forever. Replaying oldest-first with the previous committed
   version as [prev] reproduces exactly the announcements an
   incrementally built chain would have made. *)
let set_on_commit t f =
  t.on_commit <- Some f;
  List.iter
    (fun (key, vs) ->
      ignore
        (List.fold_left
           (fun prev v ->
             f key v ~prev ~next:Types.no_vid;
             v.vid)
           Types.no_vid vs))
    (List.rev (committed_by_key t))

(* Draw a key's initial version at its first access. It is born
   committed; announce it so the streaming checker learns its vid. *)
let new_initial t key =
  let v = initial_version (fresh_vid ()) in
  (match t.on_commit with
   | Some f -> f key v ~prev:Types.no_vid ~next:Types.no_vid
   | None -> ());
  v

(* The initial version of a key that has no chain, drawn on the key's
   first access and kept in the flat table. *)
let[@ncc.hot] bare_initial t key =
  let v = Inttbl.find t.initial key in
  if v != Inttbl.absent t.initial then v
  else begin
    let v = new_initial t key in
    Inttbl.replace t.initial key v;
    v
  end

(* --- Chain handles -------------------------------------------------

   [chain] resolves a key to its chain, building it on demand around
   the key's initial version, which moves out of the flat table. A
   protocol server that keeps its own per-key state resolves each key
   once and works on the handle from then on; the key-taking write
   entry points further down are one-line wrappers over these, and the
   read entry points answer a chain-less key from its record. *)

let[@ncc.hot] chain t key =
  let c = Inttbl.find t.tbl key in
  if c.n > 0 (* not the table's empty chain *) then c
  else begin
    let v0 = Inttbl.find t.initial key in
    let v0 =
      if v0 != Inttbl.absent t.initial then begin
        Inttbl.remove t.initial key;
        v0
      end
      else new_initial t key
    in
    let c = { key; vs = Array.make 4 v0; n = 1; written_next = Inttbl.absent t.tbl } in
    Inttbl.replace t.tbl key c;
    c
  end

(* Insert [v] at position [i], shifting the newer suffix right. *)
let insert_at c i v =
  if c.n = Array.length c.vs then begin
    let fresh = Array.make (c.n * 2) v in
    Array.blit c.vs 0 fresh 0 c.n;
    c.vs <- fresh
  end;
  Array.blit c.vs i c.vs (i + 1) (c.n - i);
  c.vs.(i) <- v;
  c.n <- c.n + 1

(* Remove the version at position [i], shifting the newer suffix left.
   The vacated slot is repointed at the terminator so the array does
   not retain the unlinked version. *)
let remove_at c i =
  Array.blit c.vs (i + 1) c.vs i (c.n - i - 1);
  c.n <- c.n - 1;
  c.vs.(c.n) <- c.vs.(0)

(* Index of the version with id [vid] in [vs.(0 .. i)], or -1. *)
let rec index_from c vid i =
  if i < 0 || c.vs.(i).vid = vid then i else index_from c vid (i - 1)

(* Index of the version with id [vid] in the live prefix, or -1. *)
let index_of c vid = index_from c vid (c.n - 1)

let[@ncc.hot] chain_head c = c.vs.(c.n - 1)

(* Newest committed version (skips undecided heads). *)
let rec last_committed c i =
  if i < 0 then assert false (* chains always hold the initial version *)
  else if c.vs.(i).status = Committed then c.vs.(i)
  else last_committed c (i - 1)

(* The newest version of a key, any status, without building a chain. *)
let[@ncc.hot] most_recent t key =
  let c = Inttbl.find t.tbl key in
  if c.n > 0 then chain_head c else bare_initial t key

(* A chain-less key's one version is its committed initial version. *)
let[@ncc.hot] most_recent_committed t key =
  let c = Inttbl.find t.tbl key in
  if c.n > 0 then last_committed c (c.n - 1) else bare_initial t key

(* --- NCC execution (Alg 4.2) ------------------------------------- *)

(* Execute a write with pre-assigned timestamp [ts]: create an
   undecided version ordered after the current most recent one. *)
let[@ncc.hot] chain_write t c value ~ts ~writer =
  let curr = chain_head c in
  let tw = Ts.max ts (Ts.succ curr.tr) in
  let v =
    { vid = fresh_vid (); value; tw; tr = tw; status = Undecided; writer; parked = [] }
  in
  insert_at c c.n v;
  note_written t c;
  t.created <- t.created + 1;
  v

(* Execute a read with pre-assigned timestamp [ts] against the most
   recent version, refining its t_r. [refine:false] serves the value
   without moving t_r — used for the read half of a fused same-shot
   read-modify-write, whose serialization point is the write's t_w
   (on a chain handle, that read is [chain_head]). *)
let refine_read ?(refine = true) curr ~ts =
  if refine then curr.tr <- Ts.max ts curr.tr;
  curr

let[@ncc.hot] chain_read c ~ts = refine_read (chain_head c) ~ts

(* --- Commitment --------------------------------------------------- *)

let commit_version v =
  v.status <- Committed;
  let waiters = v.parked in
  v.parked <- [];
  List.iter (fun f -> f v) waiters

(* Index of the first committed version from [j] on in steps of
   [step], or -1 past either end of the live prefix. *)
let rec nearest_committed c j step =
  if j < 0 || j >= c.n then -1
  else if c.vs.(j).status = Committed then j
  else nearest_committed c (j + step) step

(* Commit on a chain: same as [commit_version], but with enough context
   to fire the [on_commit] hook with the version's nearest committed
   neighbors at commit time (MVTO inserts can land mid-chain, so the
   successor is not always [None]). Protocol servers commit through
   this entry point or its keyed wrapper [commit_in]. *)
let chain_commit t key c v =
  commit_version v;
  match t.on_commit with
  | None -> ()
  | Some f ->
    let i = index_of c v.vid in
    if i >= 0 then begin
      let p = nearest_committed c (i - 1) (-1) and n = nearest_committed c (i + 1) 1 in
      f key v
        ~prev:(if p < 0 then Types.no_vid else c.vs.(p).vid)
        ~next:(if n < 0 then Types.no_vid else c.vs.(n).vid)
    end

(* Unlink an aborted version from its chain. *)
let chain_abort c v =
  let i = index_of c v.vid in
  if i >= 0 then remove_at c i;
  let waiters = v.parked in
  v.parked <- [];
  List.iter (fun f -> f v) waiters

(* --- Smart retry support (Alg 4.4) -------------------------------- *)

(* The version immediately preceding [v] in the current chain (i.e. the
   one [v] was ordered after, accounting for unlinked aborts), or [v]
   itself when it has none: no option per call. *)
let chain_prev c v =
  let i = index_of c v.vid in
  if i > 0 then c.vs.(i - 1) else v

(* The version created immediately after [v] on its key, or [v]
   itself when it has none. *)
let chain_next c v =
  let i = index_of c v.vid in
  if i >= 0 && i < c.n - 1 then c.vs.(i + 1) else v

let neighbour v w = if w == v then None else Some w

(* --- Keyed entry points ------------------------------------------- *)

let[@ncc.hot] write t key value ~ts ~writer = chain_write t (chain t key) value ~ts ~writer
let[@ncc.hot] read ?refine t key ~ts = refine_read ?refine (most_recent t key) ~ts
let commit_in t key v = chain_commit t key (chain t key) v
let abort_version t key v = chain_abort (chain t key) v
let prev_version t key v = neighbour v (chain_prev (chain t key) v)
let next_version t key v = neighbour v (chain_next (chain t key) v)

(* --- Timestamp-ordered access (MVTO / TAPIR baselines) ------------ *)

(* Largest index with [tw <= ts] in the live prefix, or -1: chains are
   tw-sorted, so this is a binary search (the upper bound lands on the
   newest among equal timestamps). *)
let find_at c ~ts =
  let lo = ref 0 and hi = ref (c.n - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Ts.(c.vs.(mid).tw <= ts) then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

(* Latest version (committed or undecided) with tw <= ts. Timestamps
   below the initial version (possible with negatively skewed clocks)
   resolve to the chain terminator, so the lookup is total — no option
   (the old [version option] return allocated a Some per read on the
   hot path, and every caller's None branch was dead code). *)
let[@ncc.hot] version_at t key ~ts =
  let c = Inttbl.find t.tbl key in
  if c.n > 0 then begin
    let i = find_at c ~ts in
    if i >= 0 then c.vs.(i) else c.vs.(0)
  end
  else bare_initial t key

(* Insert a version in tw order (MVTO writes can land mid-chain). *)
let insert_ordered t key value ~tw ~writer =
  let c = chain t key in
  let v =
    { vid = fresh_vid (); value; tw; tr = tw; status = Undecided; writer; parked = [] }
  in
  insert_at c (find_at c ~ts:tw + 1) v;
  note_written t c;
  t.created <- t.created + 1;
  v

(* Park a callback to run when [v] is decided. *)
let park v f = v.parked <- f :: v.parked

(* --- Introspection / GC ------------------------------------------- *)

let versions_created t = t.created

let vids = List.map (fun v -> v.vid)

(* Committed version ids of a key, oldest first (for the checker). *)
let committed_order t key =
  let c = Inttbl.find t.tbl key in
  if c.n > 0 then vids (committed_of c) else [ (bare_initial t key).vid ]

let all_committed_orders t = List.map (fun (key, vs) -> (key, vids vs)) (committed_by_key t)

(* Drop committed versions beyond the [keep] newest entries of each
   chain; undecided versions and the chain terminator are never
   dropped. Only the written list is walked: each chain is truncated
   on its own, so the visit order cannot matter. *)
let gc ?(keep = 8) t =
  let rec sweep c =
    let w = ref 0 in
    for i = 0 to c.n - 1 do
      let v = c.vs.(i) in
      if i = 0 || v.status = Undecided || c.n - 1 - i < keep then begin
        c.vs.(!w) <- v;
        incr w
      end
    done;
    for i = !w to c.n - 1 do
      c.vs.(i) <- c.vs.(0)
    done;
    c.n <- !w;
    if c.written_next != c then sweep c.written_next
  in
  if t.written != Inttbl.absent t.tbl then sweep t.written

let chain_length t key =
  let c = Inttbl.find t.tbl key in
  if c.n > 0 then c.n
  else begin
    ignore (bare_initial t key);
    1
  end
