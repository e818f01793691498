(* The streaming checker against the post-hoc one: planted-anomaly
   regression corpus with stable evidence goldens, qcheck equivalence
   on randomized histories (including planted violations), windowed-GC
   coverage (retirement never changes a verdict; the live set stays
   bounded on a 100k-txn history), and runner-level agreement between
   [--check on] and a post-hoc check of the same run's history across
   protocols and seeds. *)

module Rsg = Checker.Rsg
module Stream = Checker.Stream
module V = Checker.Verdict
module Runner = Harness.Runner

(* A history is the commit records plus the per-key installed version
   orders; both checkers are driven from the same data. *)
type history = {
  commits : (int * float * float * (int * int) list * (int * int) list) list;
  orders : (int * int list) list;
}

let load h =
  let t = Rsg.create () in
  List.iter
    (fun (txn, start, finish, reads, writes) ->
      Rsg.record_commit t ~txn ~start ~finish ~reads ~writes)
    h.commits;
  List.iter (fun (k, o) -> Rsg.record_version_order t k o) h.orders;
  t

let posthoc h ~strict = Rsg.check (load h) ~strict

module Iset = Set.Make (Int)

(* Drive a streaming checker from a post-hoc history: commits replay
   in finish order; versions no record claims (initial versions,
   writes of transactions that never reported) are announced up
   front, and each other version [lag vid] records late: 0 just before
   its writer's record, 1 or 2 after its writer's record or the next
   one (the record arrives first), 3 both before and again after the
   next record (a duplicated announcement). Each announcement names
   the nearest already-announced neighbours in the final order as
   prev/next, so late announcements land mid-chain, as MVTO inserts
   do. The watermark is the exact suffix minimum of the remaining
   start times. The checker is returned unfinalized. *)
let replay ?strict ?epoch ?(lag = fun _ -> 0) ~records ~orders () =
  let pos = Hashtbl.create 64 and writer_of = Hashtbl.create 64 in
  List.iter
    (fun (key, vids) -> List.iteri (fun i vid -> Hashtbl.replace pos vid (key, i)) vids)
    orders;
  List.iter
    (fun (r : Rsg.txn_record) ->
      List.iter (fun (_, vid) -> Hashtbl.replace writer_of vid r.Rsg.txn) r.Rsg.writes)
    records;
  let arr =
    Array.of_list
      (List.stable_sort
         (fun (a : Rsg.txn_record) b -> Float.compare a.Rsg.finish b.Rsg.finish)
         (List.rev records))
  in
  let n = Array.length arr in
  let suffix_min = Array.make (n + 1) Float.infinity in
  for i = n - 1 downto 0 do
    suffix_min.(i) <- Float.min arr.(i).Rsg.start suffix_min.(i + 1)
  done;
  let step = ref 0 in
  let t = Stream.create ?strict ?epoch ~watermark:(fun () -> suffix_min.(!step)) () in
  let installed = Hashtbl.create 16 and order_arr = Hashtbl.create 16 in
  List.iter (fun (key, vids) -> Hashtbl.replace order_arr key (Array.of_list vids)) orders;
  let announce vid =
    match Hashtbl.find_opt pos vid with
    | None -> () (* in no order: readers see it as dirty, as in Rsg *)
    | Some (key, i) ->
      let a = Hashtbl.find order_arr key in
      let s = Option.value ~default:Iset.empty (Hashtbl.find_opt installed key) in
      let prev = Option.map (Array.get a) (Iset.find_last_opt (fun j -> j < i) s) in
      let next = Option.map (Array.get a) (Iset.find_first_opt (fun j -> j > i) s) in
      Hashtbl.replace installed key (Iset.add i s);
      Stream.observe_version t ~key ~vid
        ~writer:(Option.value ~default:0 (Hashtbl.find_opt writer_of vid))
        ~prev ~next
  in
  List.iter
    (fun (_, vids) ->
      List.iter (fun vid -> if not (Hashtbl.mem writer_of vid) then announce vid) vids)
    orders;
  let late = Array.make (n + 1) [] in
  Array.iteri
    (fun i (r : Rsg.txn_record) ->
      step := i;
      List.iter
        (fun (_, vid) ->
          let l = lag vid in
          if l = 0 || l = 3 then announce vid;
          if l > 0 then begin
            let j = min n (i + if l = 3 then 2 else l) in
            late.(j) <- vid :: late.(j)
          end)
        r.Rsg.writes;
      Stream.observe_commit t ~txn:r.Rsg.txn ~start:r.Rsg.start ~finish:r.Rsg.finish
        ~reads:r.Rsg.reads ~writes:r.Rsg.writes;
      step := i + 1;
      List.iter announce (List.rev late.(i + 1)))
    arr;
  List.iter announce (List.rev late.(n));
  t

let streamed ?strict ?epoch ?lag h =
  replay ?strict ?epoch ?lag ~records:(Rsg.records (load h)) ~orders:h.orders ()

(* --- planted-anomaly corpus ----------------------------------------- *)

(* Each entry: a hand-built history, whether plain serializability also
   rejects it, and the expected evidence string. The golden is the
   post-hoc strict verdict rendered by [Verdict.to_string]; the windowed
   stream must agree on its anomaly class, and the serializable stream
   must reproduce the post-hoc serializable verdict field for field. *)
let corpus =
  [
    ( "timestamp inversion",
      (* two disjoint-in-time blind writers whose installed order is
         inverted: serializable, not strictly serializable *)
      {
        commits =
          [ (1, 0.0, 1.0, [], [ (1, 102) ]); (2, 5.0, 6.0, [], [ (1, 101) ]) ];
        orders = [ (1, [ 100; 101; 102 ]) ];
      },
      false,
      "strict-serializability cycle: rt1 -> tx2 -> tx1" );
    ( "stale read",
      (* the reader starts after the writer finished yet observes the
         key's initial version *)
      {
        commits =
          [ (1, 0.0, 1.0, [], [ (1, 101) ]); (2, 2.0, 3.0, [ (1, 100) ], []) ];
        orders = [ (1, [ 100; 101 ]) ];
      },
      false,
      "strict-serializability cycle: rt1 -> tx2 -> tx1" );
    ( "lost update",
      (* two overlapping read-modify-writes of the same key both read
         the pre-state: rw and ww edges close a pure execution cycle *)
      {
        commits =
          [
            (1, 0.0, 10.0, [ (1, 100) ], [ (1, 101) ]);
            (2, 0.0, 10.0, [ (1, 100) ], [ (1, 102) ]);
          ];
        orders = [ (1, [ 100; 101; 102 ]) ];
      },
      true,
      "strict-serializability cycle: tx2 -> tx1" );
    ( "real-time edge violation",
      (* the paper's photo-album anecdote: the reader sees the new
         photo but the old ACL, inverting real time transitively *)
      {
        commits =
          [
            (1, 0.0, 1.0, [], [ (1, 101) ]);
            (2, 2.0, 3.0, [], [ (2, 201) ]);
            (3, 4.0, 5.0, [ (2, 201); (1, 100) ], []);
          ];
        orders = [ (1, [ 100; 101 ]); (2, [ 200; 201 ]) ];
      },
      false,
      "strict-serializability cycle: rt2 -> tx3 -> tx1 -> rt1 -> tx2" );
    ( "dirty read",
      {
        commits = [ (1, 0.0, 1.0, [ (1, 999) ], []) ];
        orders = [ (1, [ 100 ]) ];
      },
      true,
      "dirty read: tx1 read aborted/unknown version 999 of key 1" );
  ]

let corpus_case (name, h, also_plain, golden) =
  Alcotest.test_case name `Quick (fun () ->
      let reference = posthoc h ~strict:true in
      Alcotest.(check string) "golden evidence" golden (V.to_string reference);
      let plain = posthoc h ~strict:false in
      Alcotest.(check bool) "plain serializability rejects it too" also_plain
        (not (V.is_ok plain));
      (* serializable: field-for-field the post-hoc verdict *)
      let ser = Stream.finalize (streamed ~strict:false h) in
      Alcotest.(check string) "serializable stream verdict" (V.to_string plain)
        (V.to_string ser);
      Alcotest.(check bool) "field-for-field" true (V.equal plain ser);
      (* strict, tiny epoch so retirement actually runs: the class (and
         for dirty reads the full evidence) must agree *)
      let on = Stream.finalize (streamed ~epoch:1 h) in
      Alcotest.(check bool)
        (Printf.sprintf "windowed stream agrees (got %S)" (V.to_string on))
        true
        (V.same_class reference on))

(* NCC-noRTC negative control: the deliberately broken variant must be
   caught by the streaming checker in a real run, and stock NCC on the
   same seeds must pass — so a later regression cannot silently turn
   the streaming check into a no-op. *)
let no_rtc_negative_control () =
  let caught = ref 0 in
  for seed = 1 to 10 do
    let w = Workload.Google_f1.make_wf ~write_fraction:0.30 () in
    let r = Harness.Chaos.run Ncc.protocol_no_rtc w ~seed in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d verdict not skipped" seed)
      false
      (r.Harness.Chaos.check = "skipped");
    if not r.Harness.Chaos.ok then incr caught
  done;
  if !caught = 0 then
    Alcotest.fail "NCC-noRTC passed the streaming checker on all 10 seeds"

(* --- randomized histories: stream == post-hoc ----------------------- *)

(* Serial execution of a random op script over keys 0..2 (txn i lives
   in [2i, 2i+1], every third one starting early so that it overlaps
   its predecessor; reads see the latest committed version), with an
   optional planted violation. Each write carries its announcement
   lag (see [replay]); [shift] moves every vid up by 10^9. *)
let build_history (specs, tamper, shift) =
  let off = if shift then 1_000_000_000 else 0 in
  let next = ref (off + 1000) in
  let latest = Array.init 3 (fun k -> off + (k * 100)) in
  let orders = Array.init 3 (fun k -> [ off + (k * 100) ]) in
  let lags = Hashtbl.create 16 in
  let commits = ref [] in
  List.iteri
    (fun i ops ->
      let reads = ref [] and writes = ref [] in
      List.iter
        (fun (is_write, k, lag) ->
          if is_write then begin
            incr next;
            latest.(k) <- !next;
            orders.(k) <- !next :: orders.(k);
            writes := (k, !next) :: !writes;
            Hashtbl.replace lags !next lag
          end
          else reads := (k, latest.(k)) :: !reads)
        ops;
      let early = if i mod 3 = 2 then 1.5 else 0.0 in
      commits :=
        ( i + 1,
          float_of_int (2 * i) -. early,
          float_of_int ((2 * i) + 1),
          !reads,
          !writes )
        :: !commits)
    specs;
  let n = List.length specs in
  (match tamper with
  | 0 -> () (* clean serial history *)
  | 1 ->
    (* invert the newest two writes of key 0, if there are two *)
    (match orders.(0) with
    | a :: b :: (_ :: _ as rest) -> orders.(0) <- b :: a :: rest
    | _ -> ())
  | 2 ->
    (* a read of a version no server ever committed *)
    commits := (n + 1, 1e6, 1e6 +. 1.0, [ (0, off + 99999) ], []) :: !commits
  | 3 ->
    (* two overlapping txns that each read the other's write *)
    orders.(0) <- (off + 99990) :: orders.(0);
    orders.(1) <- (off + 99991) :: orders.(1);
    commits :=
      (n + 2, 1e6, 1e6 +. 10.0, [ (0, off + 99990) ], [ (1, off + 99991) ])
      :: (n + 1, 1e6, 1e6 +. 10.0, [ (1, off + 99991) ], [ (0, off + 99990) ])
      :: !commits
  | 4 ->
    (* a late reader of key 0's initial version: stale if key 0 was written *)
    commits := (n + 1, 1e6, 1e6 +. 1.0, [ (0, off) ], []) :: !commits
  | _ ->
    (* a late write installed right after key 1's initial version: an
       MVTO-style mid-chain insert, a timestamp inversion if key 1 was
       written *)
    orders.(1) <-
      (match List.rev orders.(1) with
      | init :: rest -> List.rev (init :: (off + 99995) :: rest)
      | [] -> []);
    commits := (n + 1, 1e6, 1e6 +. 1.0, [], [ (1, off + 99995) ]) :: !commits);
  ( {
      commits = List.rev !commits;
      orders = List.init 3 (fun k -> (k, List.rev orders.(k)));
    },
    fun vid -> Option.value ~default:0 (Hashtbl.find_opt lags vid) )

let history_gen =
  QCheck.(
    triple
      (list_of_size Gen.(1 -- 10)
         (list_of_size Gen.(1 -- 4) (triple bool (0 -- 2) (0 -- 3))))
      (0 -- 5) bool)

(* The serializable stream retires nothing (gc off) and must give the
   post-hoc serializable verdict, witness included. *)
let stream_equals_posthoc =
  QCheck.Test.make
    ~name:"gc-off stream verdict is field-for-field the post-hoc one" ~count:300
    history_gen
    (fun spec ->
      let h, lag = build_history spec in
      V.equal (posthoc h ~strict:false) (Stream.finalize (streamed ~strict:false ~lag h)))

let gc_never_changes_verdict =
  QCheck.Test.make
    ~name:"retiring a txn never changes a later verdict (gc on, epochs 1-3, agrees with post-hoc)"
    ~count:300 history_gen
    (fun spec ->
      let h, lag = build_history spec in
      (* short epochs force retirement sweeps all through the replay *)
      let reference = posthoc h ~strict:true in
      List.for_all
        (fun epoch ->
          V.same_class reference (Stream.finalize (streamed ~epoch ~lag h)))
        [ 1; 2; 3 ])

(* --- windowed GC: bounded memory ------------------------------------ *)

(* A 100k-transaction serial read-modify-write chain on one key: with
   the window at 1024 the live set must stay around the window size
   while nearly everything retires, and the verdict is still ok. *)
let live_set_stays_bounded () =
  let t = Rsg.create () in
  for i = 1 to 100_000 do
    Rsg.record_commit t ~txn:i
      ~start:(float_of_int (2 * i))
      ~finish:(float_of_int ((2 * i) + 1))
      ~reads:[ (1, 100 + i - 1) ]
      ~writes:[ (1, 100 + i) ]
  done;
  Rsg.record_version_order t 1 (List.init 100_001 (fun i -> 100 + i));
  let orders = [ (1, List.init 100_001 (fun i -> 100 + i)) ] in
  let st = replay ~epoch:1024 ~records:(Rsg.records t) ~orders () in
  let stats = Stream.stats st in
  Alcotest.(check bool) "verdict ok" true (V.is_ok (Stream.finalize st));
  Alcotest.(check int) "all commits observed" 100_000 stats.Stream.commits;
  (* documented ceiling: window plus the concurrency of the history
     (serial here), with slack for the epoch granularity *)
  if stats.Stream.live_high_water > 2 * 1024 then
    Alcotest.fail
      (Printf.sprintf "live high-water %d exceeds 2x the 1024 window"
         stats.Stream.live_high_water);
  if stats.Stream.retired < 100_000 - (2 * 1024) then
    Alcotest.fail (Printf.sprintf "only %d retired" stats.Stream.retired)

(* A TPC-C-shaped feed: each of 100k serial transactions reads and
   read-modify-writes one hot key and inserts one fresh key (whose
   initial version is announced first, as the store does). Every
   fresh key ends with a retired tail and every overwritten version is
   pruned, so the checker's retained heap must stay a few words per
   transaction: one word per vid plus the live window. *)
let tpcc_shaped_retained_words () =
  let n = 100_000 in
  let step = ref 0 and vid = ref 0 in
  let t =
    Stream.create ~epoch:1024
      ~watermark:(fun () -> float_of_int (2 * (!step + 1)))
      ()
  in
  let fresh () =
    incr vid;
    !vid
  in
  let hot = ref (fresh ()) in
  Stream.observe_version t ~key:0 ~vid:!hot ~writer:0 ~prev:None ~next:None;
  for i = 1 to n do
    step := i;
    let init = fresh () in
    Stream.observe_version t ~key:i ~vid:init ~writer:0 ~prev:None ~next:None;
    let hv = fresh () and iv = fresh () in
    Stream.observe_version t ~key:0 ~vid:hv ~writer:i ~prev:(Some !hot) ~next:None;
    Stream.observe_version t ~key:i ~vid:iv ~writer:i ~prev:(Some init) ~next:None;
    Stream.observe_commit t ~txn:i
      ~start:(float_of_int (2 * i))
      ~finish:(float_of_int ((2 * i) + 1))
      ~reads:[ (0, !hot) ]
      ~writes:[ (0, hv); (i, iv) ];
    hot := hv
  done;
  (* ncc-lint: allow R4 — measures the checker's reachable heap; nothing is cast *)
  let words = Obj.reachable_words (Obj.repr t) in
  let per_txn = float_of_int words /. float_of_int n in
  Alcotest.(check bool) "verdict ok" true (V.is_ok (Stream.finalize t));
  if per_txn > 8.0 then
    Alcotest.fail
      (Printf.sprintf "checker retains %.1f words per transaction (%d stale)" per_txn
         (Stream.stats t).Stream.stale_residue)

(* --- delayed announcements (records ahead of server announcements) -- *)

(* A legal history whose server announcements lag the commit records:
   reader 10 parks on vid 2, writer 20's announcement of vid 2 is in
   flight, and txn 30 — whose version 3 is vid 2's committed
   successor — becomes retirement-eligible by the harness watermark
   alone (every *unobserved* txn starts at >= 10). The retirement gate
   must keep 30 live until the parked records resolve; without it,
   vid 2's announcement tripped the instant retired-edge rules and
   reported a false violation on this strictly serializable history
   (serial order 20, 10, 30 respects real time). *)
let delayed_announcements_stay_ok () =
  let wm = ref Float.neg_infinity in
  let t = Stream.create ~epoch:1 ~watermark:(fun () -> !wm) () in
  Stream.observe_version t ~key:1 ~vid:1 ~writer:0 ~prev:None ~next:None;
  (* reader of vid 2, which no server has announced yet *)
  Stream.observe_commit t ~txn:10 ~start:0.0 ~finish:1.0 ~reads:[ (1, 2) ]
    ~writes:[];
  (* vid 2's writer: record first, announcement in flight *)
  Stream.observe_commit t ~txn:20 ~start:0.5 ~finish:2.0 ~reads:[]
    ~writes:[ (1, 2) ];
  (* txn 30 writes vid 3, the eventual successor of vid 2 *)
  Stream.observe_version t ~key:1 ~vid:3 ~writer:777 ~prev:(Some 1) ~next:None;
  wm := 10.0;
  Stream.observe_commit t ~txn:30 ~start:5.0 ~finish:6.0 ~reads:[]
    ~writes:[ (1, 3) ];
  (* the lagging announcement resolves both parked records *)
  Stream.observe_version t ~key:1 ~vid:2 ~writer:999 ~prev:(Some 1)
    ~next:(Some 3);
  Alcotest.(check string)
    "legal history stays ok" "ok"
    (V.to_string (Stream.finalize t))

(* A genuine timestamp inversion through the same delayed path: txn 30
   retires, then txn 20 — which started after 30 finished — installs
   vid 2 *before* 30's version in the order. Both claim orders (commit
   record before the announcement, and announcement before the record)
   must report the two-cycle with the transaction id, never the
   server's per-attempt wire id (999). *)
let parked_inversion_witness_names_txn () =
  let golden = "strict-serializability cycle: tx20 -> tx30" in
  let check_order name record_first =
    let wm = ref Float.neg_infinity in
    let t = Stream.create ~epoch:1 ~watermark:(fun () -> !wm) () in
    Stream.observe_version t ~key:1 ~vid:1 ~writer:0 ~prev:None ~next:None;
    Stream.observe_version t ~key:1 ~vid:3 ~writer:777 ~prev:(Some 1)
      ~next:None;
    wm := 10.0;
    (* the epoch at 30's commit retires it: nothing is parked *)
    Stream.observe_commit t ~txn:30 ~start:0.0 ~finish:1.0 ~reads:[]
      ~writes:[ (1, 3) ];
    let announce () =
      Stream.observe_version t ~key:1 ~vid:2 ~writer:999 ~prev:(Some 1)
        ~next:(Some 3)
    and record () =
      Stream.observe_commit t ~txn:20 ~start:20.0 ~finish:21.0 ~reads:[]
        ~writes:[ (1, 2) ]
    in
    if record_first then (
      record ();
      announce ())
    else (
      announce ();
      record ());
    Alcotest.(check string) name golden (V.to_string (Stream.finalize t))
  in
  check_order "record then announcement (pend_writes claim)" true;
  check_order "announcement then record (parked evidence)" false

(* --- runner-level agreement ----------------------------------------- *)

let small_cfg seed =
  {
    Runner.default with
    Runner.n_servers = 3;
    n_clients = 4;
    offered_load = 600.0;
    duration = 0.2;
    warmup = 0.05;
    drain = 0.3;
    max_inflight = 4;
    seed;
  }

(* Whether the protocol violates strictness on the skewed hot run. *)
let agreement_protocols =
  [
    ("NCC", Ncc.protocol, false);
    ("NCC-RW", Ncc.protocol_rw, false);
    ("dOCC", Baselines.docc, false);
    ("d2PL-NW", Baselines.d2pl_no_wait, false);
    ("Janus-CC", Baselines.janus_cc, false);
    ("TAPIR-CC", Baselines.tapir_cc, true);
    ("MVTO", Baselines.mvto, true);
  ]

(* [tee p] is [p] with a post-hoc reference check of its history,
   kept apart from the runner's checker: each transaction's first
   commit report is recorded in an {!Rsg}, timed from the submit of the
   attempt that committed to the report (the interval the runner
   feeds its checker), and the final version orders are read from the
   servers' stores. Wrapping draws no randomness and schedules
   nothing, so the run is the bare run. *)
let tee (module P : Harness.Protocol.S) =
  let rsg = Rsg.create () and stores = ref [] and now = ref (fun () -> 0.0) in
  let submitted = Hashtbl.create 64 and teed = Hashtbl.create 64 in
  let module T = struct
    include P

    let make_server ctx =
      let s = P.make_server ctx in
      stores := !stores @ P.server_stores s;
      s

    let make_client ctx ~report =
      (now := fun () -> Cluster.Net.now ctx);
      P.make_client ctx ~report:(fun (o : Kernel.Outcome.t) ->
          let id = o.txn.Kernel.Txn.id in
          if Kernel.Outcome.committed o && not (Hashtbl.mem teed id) then begin
            Hashtbl.replace teed id ();
            Rsg.record_commit rsg ~txn:id ~start:(Hashtbl.find submitted id)
              ~finish:(!now ())
              ~reads:(List.map (fun (k, vid, _) -> (k, vid)) o.reads)
              ~writes:o.writes
          end;
          report o)

    let submit c (txn : Kernel.Txn.t) =
      Hashtbl.replace submitted txn.id (!now ());
      P.submit c txn
  end in
  let posthoc ~strict =
    List.iter
      (fun st ->
        List.iter
          (fun (k, o) -> Rsg.record_version_order rsg k o)
          (Mvstore.Store.all_committed_orders st))
      !stores;
    match Rsg.check rsg ~strict with
    | V.Ok -> Printf.sprintf "ok (%d txns)" (Rsg.n_committed rsg)
    | V.Violation a -> "VIOLATION: " ^ V.anomaly_to_string a
  in
  ((module T : Harness.Protocol.S), posthoc)

(* Both checked levels must equal the post-hoc check of the same
   history on real runs — same string, committed count and witness —
   for every protocol. The last run is hot (20 keys) under 10 ms clock
   skew, where the two protocols that only promise serializability
   (TAPIR-CC, MVTO) do violate strictness. *)
let runner_agreement (name, p, violates) =
  Alcotest.test_case (name ^ " --check on == --check post") `Quick (fun () ->
      List.iter
        (fun (label, n_keys, max_clock_offset, seed) ->
          let run check =
            let teed, posthoc = tee p in
            let r =
              Runner.run teed (Workload.Google_f1.make ~n_keys ())
                { (small_cfg seed) with Runner.check; max_clock_offset }
            in
            Alcotest.(check string) (label ^ " verdict")
              (posthoc ~strict:(check = Runner.Streaming)) r.Runner.check_result;
            r
          in
          let on = run Runner.Streaming in
          ignore (run Runner.Serializable);
          if String.equal label "skewed" then
            Alcotest.(check bool) "skewed run violates" violates (Runner.violated on))
        [
          ("seed 1", 1000, Runner.default.Runner.max_clock_offset, 1);
          ("seed 2", 1000, Runner.default.Runner.max_clock_offset, 2);
          ("skewed", 20, 10e-3, 2);
        ])

(* --- the quick tiers really check ----------------------------------- *)

let quick_tiers_not_skipped () =
  let w = Workload.Google_f1.make () in
  let r = Harness.Chaos.run Ncc.protocol w ~seed:1 in
  Alcotest.(check bool) "chaos verdict present" false
    (r.Harness.Chaos.check = "skipped");
  Alcotest.(check bool) "chaos verdict ok" true r.Harness.Chaos.ok;
  (match Experiments.quick_scale.Experiments.check with
  | Runner.No_check -> Alcotest.fail "quick tier runs unchecked"
  | _ -> ());
  let cfg = Experiments.base_cfg ~seed:1 Experiments.quick_scale in
  Alcotest.(check bool) "quick-tier config checks" false
    (cfg.Runner.check = Runner.No_check)

(* The quick tier's Fig 8 document, every row checked: the sixteen
   verdicts and results are pinned byte for byte. *)
let quick_fig8_golden () =
  let fig8 = List.assoc "fig8" Experiments.figures in
  let rows = fig8 ~jobs:1 ~quick:true Experiments.quick_scale in
  Golden.check ~name:"bench_quick_fig8.json"
    (Harness.Report.bench_doc ~suite:"quick" rows)

(* The quick tier's Fig 7c document: NCC-RW's backup-coordinator
   recovery after client failures, the one quick figure whose recovery
   answers read the servers' record of decided wires. *)
let quick_fig7c_golden () =
  let fig7c = List.assoc "fig7c" Experiments.figures in
  let rows = fig7c ~jobs:1 ~quick:true Experiments.quick_scale in
  Golden.check ~name:"bench_quick_fig7c.json"
    (Harness.Report.bench_doc ~suite:"quick" rows)

let suite =
  List.map corpus_case corpus
  @ [
      Alcotest.test_case "NCC-noRTC caught, verdicts never skipped" `Quick
        no_rtc_negative_control;
      Alcotest.test_case "100k-txn live set stays bounded under GC" `Quick
        live_set_stays_bounded;
      Alcotest.test_case "TPC-C-shaped feed retains <= 8 words per txn" `Quick
        tpcc_shaped_retained_words;
      Alcotest.test_case "delayed announcements never fake a violation" `Quick
        delayed_announcements_stay_ok;
      Alcotest.test_case "parked inversion witness names the txn, not the wire id"
        `Quick parked_inversion_witness_names_txn;
      Alcotest.test_case "quick tiers are never skipped" `Quick
        quick_tiers_not_skipped;
      Alcotest.test_case "quick Fig 8 document golden" `Quick quick_fig8_golden;
      Alcotest.test_case "quick Fig 7c document golden" `Quick quick_fig7c_golden;
    ]
  @ List.map runner_agreement agreement_protocols
  @ List.map QCheck_alcotest.to_alcotest
      [ stream_equals_posthoc; gc_never_changes_verdict ]
