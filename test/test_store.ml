(* Multi-versioned store: the timestamp refinement rules of Alg 4.2 and
   the ordered-insertion entry points used by the baselines. *)

open Kernel
module Store = Mvstore.Store

let ts t = Ts.make ~time:t ~cid:1
let ts2 t = Ts.make ~time:t ~cid:2

let fresh () =
  Store.reset_vids ();
  Store.create ()

let initial_version () =
  let s = fresh () in
  let v = Store.most_recent s 1 in
  Alcotest.(check bool) "initial committed" true (v.Store.status = Store.Committed);
  Alcotest.(check int) "initial writer" 0 v.Store.writer;
  Alcotest.(check bool) "tw zero" true (Ts.equal v.Store.tw Ts.zero)

let read_refines_tr () =
  let s = fresh () in
  let v = Store.read s 1 ~ts:(ts 10) in
  Alcotest.(check bool) "tr refined" true (Ts.equal v.Store.tr (ts 10));
  let v2 = Store.read s 1 ~ts:(ts 5) in
  Alcotest.(check bool) "tr keeps max" true (Ts.equal v2.Store.tr (ts 10));
  let v3 = Store.read ~refine:false s 1 ~ts:(ts 99) in
  Alcotest.(check bool) "no refinement when fused" true (Ts.equal v3.Store.tr (ts 10))

(* Alg 4.2 line 10: t_w = max(t, curr.t_r + 1). *)
let write_after_read () =
  let s = fresh () in
  ignore (Store.read s 1 ~ts:(ts 10));
  let w = Store.write s 1 42 ~ts:(ts 5) ~writer:7 in
  Alcotest.(check bool) "tw bumped past reader" true Ts.(w.Store.tw > ts 10);
  Alcotest.(check bool) "tw = tr on creation" true (Ts.equal w.Store.tw w.Store.tr);
  Alcotest.(check bool) "undecided" true (w.Store.status = Store.Undecided);
  let w2 = Store.write s 1 43 ~ts:(ts 50) ~writer:8 in
  Alcotest.(check bool) "later write takes its own ts" true (Ts.equal w2.Store.tw (ts 50))

let abort_unlinks () =
  let s = fresh () in
  let w = Store.write s 1 42 ~ts:(ts 5) ~writer:7 in
  Alcotest.(check int) "chain grew" 2 (Store.chain_length s 1);
  Store.abort_version s 1 w;
  Alcotest.(check int) "chain restored" 1 (Store.chain_length s 1);
  let v = Store.most_recent s 1 in
  Alcotest.(check int) "back to initial" 0 v.Store.writer

let commit_and_most_recent_committed () =
  let s = fresh () in
  let w = Store.write s 1 42 ~ts:(ts 5) ~writer:7 in
  Alcotest.(check int) "committed view skips undecided" 0
    (Store.most_recent_committed s 1).Store.writer;
  Store.commit_version w;
  Alcotest.(check int) "committed view sees it" 7
    (Store.most_recent_committed s 1).Store.writer

let next_prev_navigation () =
  let s = fresh () in
  let a = Store.write s 1 1 ~ts:(ts 1) ~writer:1 in
  let b = Store.write s 1 2 ~ts:(ts 2) ~writer:2 in
  (match Store.next_version s 1 a with
   | Some v -> Alcotest.(check int) "next of a is b" b.Store.vid v.Store.vid
   | None -> Alcotest.fail "expected next");
  (match Store.prev_version s 1 b with
   | Some v -> Alcotest.(check int) "prev of b is a" a.Store.vid v.Store.vid
   | None -> Alcotest.fail "expected prev");
  Alcotest.(check bool) "no next of head" true (Store.next_version s 1 b = None);
  (* aborting a relinks b's predecessor to the initial version *)
  Store.abort_version s 1 a;
  (match Store.prev_version s 1 b with
   | Some v -> Alcotest.(check int) "prev relinked" 0 v.Store.writer
   | None -> Alcotest.fail "expected prev after abort")

let ordered_insert_and_version_at () =
  let s = fresh () in
  let a = Store.insert_ordered s 1 10 ~tw:(ts 10) ~writer:1 in
  let c = Store.insert_ordered s 1 30 ~tw:(ts 30) ~writer:3 in
  let b = Store.insert_ordered s 1 20 ~tw:(ts 20) ~writer:2 in
  Alcotest.(check int) "head is ts30" c.Store.vid (Store.most_recent s 1).Store.vid;
  let at t = (Store.version_at s 1 ~ts:(ts t)).Store.vid in
  Alcotest.(check int) "at 15 -> a" a.Store.vid (at 15);
  Alcotest.(check int) "at 20 -> b" b.Store.vid (at 20);
  Alcotest.(check int) "at 99 -> c" c.Store.vid (at 99)

let park_callbacks () =
  let s = fresh () in
  let w = Store.write s 1 42 ~ts:(ts 5) ~writer:7 in
  let fired = ref [] in
  Store.park w (fun v -> fired := v.Store.status :: !fired);
  Store.park w (fun v -> fired := v.Store.status :: !fired);
  Store.commit_version w;
  Alcotest.(check int) "both callbacks ran" 2 (List.length !fired);
  Alcotest.(check bool) "saw committed" true
    (List.for_all (fun st -> st = Store.Committed) !fired)

let committed_order_oldest_first () =
  let s = fresh () in
  let a = Store.write s 1 1 ~ts:(ts 1) ~writer:1 in
  let b = Store.write s 1 2 ~ts:(ts 2) ~writer:2 in
  Store.commit_version a;
  Store.commit_version b;
  let order = Store.committed_order s 1 in
  Alcotest.(check int) "three committed (initial + 2)" 3 (List.length order);
  Alcotest.(check bool) "oldest first" true
    (List.nth order 1 = a.Store.vid && List.nth order 2 = b.Store.vid)

(* Chains built before the streaming-checker hook is installed (a
   protocol may touch its store during server construction) are
   replayed to the hook at install time: committed versions announce
   oldest-first with the previous committed version as [prev], and
   undecided versions wait for their own [commit_in]. *)
let set_on_commit_replays_existing_chains () =
  let s = fresh () in
  let w = Store.write s 1 42 ~ts:(ts 5) ~writer:7 in
  Store.commit_in s 1 w;
  ignore (Store.write s 1 43 ~ts:(ts 9) ~writer:8);
  let announced = ref [] in
  Store.set_on_commit s (fun key v ~prev ~next ->
      let vid v = if v = Kernel.Types.no_vid then "-" else string_of_int v in
      announced :=
        Printf.sprintf "k%d v%d prev=%s next=%s" key v.Store.vid (vid prev)
          (vid next)
        :: !announced);
  Alcotest.(check (list string))
    "committed versions replayed oldest-first, undecided skipped"
    [ "k1 v1 prev=- next=-"; "k1 v2 prev=1 next=-" ]
    (List.rev !announced)

let gc_keeps_undecided_and_terminator () =
  let s = fresh () in
  let undecided = ref None in
  for i = 1 to 20 do
    let w = Store.write s 1 i ~ts:(ts i) ~writer:i in
    if i = 3 then undecided := Some w else Store.commit_version w
  done;
  Store.gc ~keep:4 s;
  Alcotest.(check bool) "chain trimmed" true (Store.chain_length s 1 <= 7);
  (* the undecided version and a committed terminator must survive *)
  let survives v = Store.next_version s 1 v <> None || (Store.most_recent s 1).Store.vid = v.Store.vid in
  (match !undecided with
   | Some w -> Alcotest.(check bool) "undecided survives" true (survives w || w.Store.status = Store.Undecided)
   | None -> Alcotest.fail "setup");
  Alcotest.(check bool) "a committed version remains" true
    ((Store.most_recent_committed s 1).Store.status = Store.Committed)

(* Invariant: version chains are strictly ordered by t_w, and t_r >= t_w
   on every version, under random interleavings of reads and writes. *)
let chain_invariant =
  QCheck.Test.make ~name:"chains strictly tw-ordered, tr >= tw" ~count:200
    QCheck.(list (pair (0 -- 3) (pair bool (1 -- 1000))))
    (fun script ->
      let s = fresh () in
      List.iter
        (fun (key, (is_write, t)) ->
          if is_write then ignore (Store.write s key t ~ts:(ts2 t) ~writer:t)
          else ignore (Store.read s key ~ts:(ts2 t)))
        script;
      List.for_all
        (fun key ->
          let rec walk v =
            Ts.(v.Store.tr >= v.Store.tw)
            &&
            match Store.prev_version s key v with
            | None -> true
            | Some p -> Ts.(p.Store.tw < v.Store.tw) && walk p
          in
          walk (Store.most_recent s key))
        [ 0; 1; 2; 3 ])

(* [Store.gc] walks only the chains that ever held a write; the sweep
   it replaced visited every key in ascending order. That sweep is
   rebuilt here from the public entry points (collect a chain oldest
   first, unlink what the keep rule drops), and both run the same
   random scripts of NCC writes, ordered inserts, reads, commits,
   aborts and gcs over keys 0-3. Every key's committed order and chain
   length must agree after each gc. *)
type gc_op =
  | W of int * int  (* NCC write: key, ts *)
  | I of int * int  (* ordered insert: key, tw *)
  | R of int * int
  | Commit of int  (* an outstanding undecided version, by index *)
  | Abort of int
  | Gc of int  (* keep *)

let full_sweep ~keep s =
  List.iter
    (fun (key, _) ->
      let rec oldest_first v acc =
        match Store.prev_version s key v with
        | None -> v :: acc
        | Some p -> oldest_first p (v :: acc)
      in
      let chain = Array.of_list (oldest_first (Store.most_recent s key) []) in
      let n = Array.length chain in
      Array.iteri
        (fun i v ->
          if not (i = 0 || v.Store.status = Store.Undecided || n - 1 - i < keep) then
            Store.abort_version s key v)
        chain)
    (Store.all_committed_orders s)

(* Remove and return the outstanding undecided version at index [i]
   (modulo their number), if any. *)
let take_undecided undecided i =
  match !undecided with
  | [] -> None
  | l ->
    let k, v = List.nth l (i mod List.length l) in
    undecided := List.filter (fun (_, u) -> u != v) l;
    Some (k, v)

let run_gc_script ~gc script =
  let s = fresh () in
  let undecided = ref [] in
  let take = take_undecided undecided in
  List.fold_left
    (fun snaps op ->
      match op with
      | W (k, t) ->
        undecided := (k, Store.write s k t ~ts:(ts t) ~writer:t) :: !undecided;
        snaps
      | I (k, t) ->
        undecided := (k, Store.insert_ordered s k t ~tw:(ts2 t) ~writer:t) :: !undecided;
        snaps
      | R (k, t) ->
        ignore (Store.read s k ~ts:(ts2 t));
        snaps
      | Commit i ->
        Option.iter (fun (k, v) -> Store.commit_in s k v) (take i);
        snaps
      | Abort i ->
        Option.iter (fun (k, v) -> Store.abort_version s k v) (take i);
        snaps
      | Gc keep ->
        gc ~keep s;
        let orders = Store.all_committed_orders s in
        (orders, List.map (fun (k, _) -> Store.chain_length s k) orders) :: snaps)
    [] script

let gc_matches_full_sweep =
  let op =
    QCheck.Gen.(
      let kt = pair (0 -- 3) (1 -- 200) in
      frequency
        [
          (4, map (fun (k, t) -> W (k, t)) kt);
          (2, map (fun (k, t) -> I (k, t)) kt);
          (2, map (fun (k, t) -> R (k, t)) kt);
          (4, map (fun i -> Commit i) nat);
          (1, map (fun i -> Abort i) nat);
          (1, map (fun k -> Gc k) (1 -- 4));
        ])
  in
  QCheck.Test.make ~name:"gc over written chains = full sorted sweep" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 80) op))
    (fun script ->
      let ints = List.equal Int.equal in
      let snap (orders, lengths) (orders', lengths') =
        List.equal (fun (k, o) (k', o') -> Int.equal k k' && ints o o') orders orders'
        && ints lengths lengths'
      in
      List.equal snap
        (run_gc_script ~gc:(fun ~keep s -> Store.gc ~keep s) script)
        (run_gc_script ~gc:full_sweep script))

(* A key that is only ever read holds no chain: its initial version
   sits alone in a flat table. The retained words of a store after 10k
   reads of distinct keys, through each keyed read entry point, stay
   under 18 per key (one table slot and one version record read ~14.6;
   a chain per key, with its 4-slot array, read ~21.3). *)
let pure_reads_hold_no_chain () =
  let n = 10_000 and at = ts 10 in
  List.iter
    (fun (name, read) ->
      let s = fresh () in
      for key = 0 to n - 1 do
        ignore (read s key)
      done;
      (* ncc-lint: allow R4 — measures the store's reachable heap; nothing is cast *)
      let per_key = float_of_int (Obj.reachable_words (Obj.repr s)) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per read key" name per_key)
        true (per_key < 18.0))
    [
      ("most_recent", fun s key -> Store.most_recent s key);
      ("most_recent_committed", fun s key -> Store.most_recent_committed s key);
      ("read", fun s key -> Store.read s key ~ts:at);
      ("version_at", fun s key -> Store.version_at s key ~ts:at);
    ]

(* The chain a write builds wraps the record the reads refined: the
   same version, with its vid and t_r, is the chain's first, and the
   write orders itself after that t_r. *)
let write_keeps_read_record () =
  let s = fresh () in
  let r = Store.read s 1 ~ts:(ts 10) in
  let vid = r.Store.vid and tr = r.Store.tr in
  let w = Store.write s 1 42 ~ts:(ts 5) ~writer:7 in
  (match Store.prev_version s 1 w with
   | Some p -> Alcotest.(check bool) "vs.(0) is the read record" true (p == r)
   | None -> Alcotest.fail "expected the initial version before the write");
  Alcotest.(check int) "same vid" vid r.Store.vid;
  Alcotest.(check bool) "same tr" true (Ts.equal tr r.Store.tr);
  Alcotest.(check bool) "tw = max ts (succ tr)" true
    (Ts.equal w.Store.tw (Ts.max (ts 5) (Ts.succ tr)));
  Alcotest.(check (list int)) "committed order starts at the read record" [ vid ]
    (Store.committed_order s 1)

(* The flat table is invisible: random scripts of reads, writes,
   ordered inserts, commits, aborts and timestamp lookups over keys
   0-3 give the same versions, the same hook announcements and the same
   committed orders whether each key's chain is built lazily or forced
   by [Store.chain] before every operation. Forcing happens at a key's
   first access, as the lazy draw does, so both runs draw the same
   vids. *)
type lazy_op =
  | Lw of int * int  (* NCC write: key, ts *)
  | Li of int * int  (* ordered insert: key, tw *)
  | Lr of int * int * bool  (* read: key, ts, refine *)
  | Lat of int * int  (* version_at: key, ts *)
  | Lm of int  (* most_recent *)
  | Lc of int  (* most_recent_committed *)
  | Lcommit of int  (* an outstanding undecided version, by index *)
  | Labort of int

let op_key = function
  | Lw (k, _) | Li (k, _) | Lr (k, _, _) | Lat (k, _) | Lm k | Lc k -> Some k
  | Lcommit _ | Labort _ -> None

let run_lazy_script ~force script =
  let s = fresh () in
  let announced = ref [] in
  Store.set_on_commit s (fun key v ~prev ~next ->
      announced := (key, v.Store.vid, prev, next) :: !announced);
  let undecided = ref [] in
  let take = take_undecided undecided in
  let seen (v : Store.version) =
    Some (v.Store.vid, v.Store.value, v.Store.tw, v.Store.tr, v.Store.status = Store.Committed)
  in
  let results =
    List.map
      (fun op ->
        if force then Option.iter (fun k -> ignore (Store.chain s k)) (op_key op);
        match op with
        | Lw (k, t) ->
          let v = Store.write s k t ~ts:(ts t) ~writer:t in
          undecided := (k, v) :: !undecided;
          seen v
        | Li (k, t) ->
          let v = Store.insert_ordered s k t ~tw:(ts2 t) ~writer:t in
          undecided := (k, v) :: !undecided;
          seen v
        | Lr (k, t, refine) -> seen (Store.read ~refine s k ~ts:(ts2 t))
        | Lat (k, t) -> seen (Store.version_at s k ~ts:(ts2 t))
        | Lm k -> seen (Store.most_recent s k)
        | Lc k -> seen (Store.most_recent_committed s k)
        | Lcommit i ->
          Option.iter (fun (k, v) -> Store.commit_in s k v) (take i);
          None
        | Labort i ->
          Option.iter (fun (k, v) -> Store.abort_version s k v) (take i);
          None)
      script
  in
  let lengths = List.map (fun k -> Store.chain_length s k) [ 0; 1; 2; 3 ] in
  (results, List.rev !announced, Store.all_committed_orders s, lengths)

let same_seen a b =
  match (a, b) with
  | None, None -> true
  | Some (vid, value, tw, tr, committed), Some (vid', value', tw', tr', committed') ->
    Int.equal vid vid' && Int.equal value value' && Ts.equal tw tw' && Ts.equal tr tr'
    && Bool.equal committed committed'
  | _ -> false

let lazy_chains_match_forced =
  let op =
    QCheck.Gen.(
      let kt = pair (0 -- 3) (1 -- 200) in
      frequency
        [
          (2, map (fun (k, t) -> Lw (k, t)) kt);
          (1, map (fun (k, t) -> Li (k, t)) kt);
          (4, map2 (fun (k, t) refine -> Lr (k, t, refine)) kt bool);
          (2, map (fun (k, t) -> Lat (k, t)) kt);
          (1, map (fun k -> Lm k) (0 -- 3));
          (1, map (fun k -> Lc k) (0 -- 3));
          (3, map (fun i -> Lcommit i) nat);
          (1, map (fun i -> Labort i) nat);
        ])
  in
  QCheck.Test.make ~name:"chain-less keys = chains forced at first access" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 60) op))
    (fun script ->
      let seen, announced, orders, lengths = run_lazy_script ~force:false script in
      let seen', announced', orders', lengths' = run_lazy_script ~force:true script in
      let ints = List.equal Int.equal in
      List.equal same_seen seen seen'
      && List.equal
           (fun (k, v, p, n) (k', v', p', n') -> ints [ k; v; p; n ] [ k'; v'; p'; n' ])
           announced announced'
      && List.equal (fun (k, o) (k', o') -> Int.equal k k' && ints o o') orders orders'
      && ints lengths lengths')

let suite =
  [
    Alcotest.test_case "initial version" `Quick initial_version;
    Alcotest.test_case "read refines tr" `Quick read_refines_tr;
    Alcotest.test_case "write after read (Alg 4.2)" `Quick write_after_read;
    Alcotest.test_case "abort unlinks" `Quick abort_unlinks;
    Alcotest.test_case "commit visibility" `Quick commit_and_most_recent_committed;
    Alcotest.test_case "next/prev navigation" `Quick next_prev_navigation;
    Alcotest.test_case "ordered insert + version_at" `Quick ordered_insert_and_version_at;
    Alcotest.test_case "park callbacks" `Quick park_callbacks;
    Alcotest.test_case "committed order" `Quick committed_order_oldest_first;
    Alcotest.test_case "set_on_commit replays pre-hook chains" `Quick
      set_on_commit_replays_existing_chains;
    Alcotest.test_case "gc" `Quick gc_keeps_undecided_and_terminator;
    Alcotest.test_case "pure reads hold no chain" `Quick pure_reads_hold_no_chain;
    Alcotest.test_case "write keeps the read record" `Quick write_keeps_read_record;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ chain_invariant; gc_matches_full_sweep; lazy_chains_match_forced ]
