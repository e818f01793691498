(* NCC client-side units: the safeguard check and asynchrony-aware
   timestamp pre-assignment. *)

open Kernel
module Msg = Ncc.Msg
module Client = Ncc.Client

let ts t = Ts.make ~time:t ~cid:3

(* ncc-lint: allow R5 — fixture vid source; only distinctness matters *)
let vid_gen = ref 0

(* distinct vids and no own-predecessor links, so the plain overlap
   logic is what gets exercised *)
let res ?(w = false) key (tw, tr) =
  incr vid_gen;
  {
    Msg.r_key = key;
    r_value = 0;
    r_vid = !vid_gen;
    r_tw = ts tw;
    r_tr = ts tr;
    r_is_write = w;
    r_prev_vid = -1;
  }

let safeguard_passes_on_overlap () =
  let ok, tc = Client.safeguard [ [ res 1 (0, 10); res 2 (5, 8) ]; [ res ~w:true 3 (7, 7) ] ] in
  Alcotest.(check bool) "overlap" true ok;
  Alcotest.(check bool) "commit ts is max tw" true (Ts.equal tc (ts 7))

let safeguard_rejects_disjoint () =
  let ok, tc = Client.safeguard [ [ res 1 (0, 4); res ~w:true 2 (6, 6) ] ] in
  Alcotest.(check bool) "no overlap" false ok;
  Alcotest.(check bool) "suggested t' is max tw" true (Ts.equal tc (ts 6))

let safeguard_boundary_equal =
  QCheck.Test.make ~name:"safeguard iff max tw <= min tr" ~count:300
    QCheck.(list_of_size Gen.(1 -- 8) (pair (0 -- 50) (0 -- 50)))
    (fun pairs ->
      let results =
        List.map (fun (a, b) -> res 1 (min a b, max a b)) pairs
      in
      let tw_max = List.fold_left (fun acc r -> max acc (Ts.time r.Msg.r_tw)) 0 results in
      let tr_min =
        List.fold_left (fun acc r -> min acc (Ts.time r.Msg.r_tr)) max_int results
      in
      let ok, _ = Client.safeguard [ results ] in
      ok = (tw_max <= tr_min))

(* A rig client whose clock reads 0: pre-assigned time equals the
   asynchrony shift. *)
let mk_client () =
  let engine = Sim.Engine.create () in
  let ctx =
    {
      Cluster.Net.self = 4;
      engine;
      rng = Sim.Rng.create 1;
      topo = Cluster.Topology.make ~n_servers:4 ~n_clients:1 ();
      clock = Sim.Clock.perfect;
      send = (fun ~dst:_ _ -> ());
      timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
    }
  in
  Client.create Msg.default_config ctx ~report:(fun _ -> ())

let async_aware_shift () =
  let c = mk_client () in
  (* pretend server 2 runs 5000 ns "ahead" of us end to end *)
  c.Client.delta.(2) <- 5000.0;
  let t0 = Client.pre_assign c ~participants:[ 0; 1 ] ~is_ro:false in
  let t2 = Client.pre_assign c ~participants:[ 0; 2 ] ~is_ro:false in
  (* the per-client monotonic floor lifts a zero clock to 1 *)
  Alcotest.(check int) "no shift for unknown servers" 1 (Ts.time t0);
  Alcotest.(check int) "shift applied" 5000 (Ts.time t2);
  Alcotest.(check int) "client id embedded" 4 (Ts.cid t2)

let async_aware_disabled () =
  let engine = Sim.Engine.create () in
  let ctx =
    {
      Cluster.Net.self = 4;
      engine;
      rng = Sim.Rng.create 1;
      topo = Cluster.Topology.make ~n_servers:4 ~n_clients:1 ();
      clock = Sim.Clock.perfect;
      send = (fun ~dst:_ _ -> ());
      timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
    }
  in
  let c =
    Client.create { Msg.default_config with async_aware = false } ctx ~report:(fun _ -> ())
  in
  c.Client.delta.(2) <- 5000.0;
  let t = Client.pre_assign c ~participants:[ 2 ] ~is_ro:false in
  Alcotest.(check int) "no shift when disabled (floor only)" 1 (Ts.time t)

let ro_ts_covers_tro () =
  let c = mk_client () in
  c.Client.tro.(1) <- Ts.make ~time:777 ~cid:0;
  let t = Client.pre_assign c ~participants:[ 1 ] ~is_ro:true in
  Alcotest.(check bool) "ts above every known t_ro" true (Ts.time t >= 778)

let ewma_tracks_replies () =
  let c = mk_client () in
  let reply ~server ~server_ns ~client_ns =
    Client.handle c ~src:server
      (Msg.Exec_reply
         {
           e_wire = 999;  (* no such inflight: only the tracking updates *)
           e_round = 1;
           e_server = server;
           e_results = [];
           e_server_ns = server_ns;
           e_client_ns = client_ns;
           e_latest_write_tw = Ts.zero;
           e_flag = Msg.Ok;
         })
  in
  reply ~server:3 ~server_ns:1000 ~client_ns:0;
  let d1 = c.Client.delta.(3) in
  Alcotest.(check (float 1e-9)) "first sample adopted" 1000.0 d1;
  reply ~server:3 ~server_ns:2000 ~client_ns:0;
  let d2 = c.Client.delta.(3) in
  Alcotest.(check (float 1e-9)) "ewma blend" ((0.8 *. 1000.0) +. (0.2 *. 2000.0)) d2

(* The own-write extension the safeguard used to build before folding
   (it now decides without it), kept here as the oracle: each result's
   t_r rises to the largest t_w among own writes directly after its
   version, in one pass over a table of those writes. *)
let extend_own_pairs results =
  if not (List.exists (fun (r : Msg.op_result) -> r.r_is_write) results) then results
  else begin
    (* prev vid -> largest t_w of an own write ordered directly after it *)
    let succ = Hashtbl.create 8 in
    List.iter
      (fun (w : Msg.op_result) ->
        if w.r_is_write then
          match Hashtbl.find_opt succ w.r_prev_vid with
          | Some tw when Ts.(tw >= w.r_tw) -> ()
          | _ -> Hashtbl.replace succ w.r_prev_vid w.r_tw)
      results;
    List.map
      (fun (r : Msg.op_result) ->
        match Hashtbl.find_opt succ r.r_vid with
        | Some tw when Ts.(r.r_tr < tw) -> { r with r_tr = tw }
        | _ -> r)
      results
  end

let fold_pairs results =
  let tw_max = List.fold_left (fun acc (r : Msg.op_result) -> Ts.max acc r.r_tw) Ts.zero results in
  let tr_min =
    List.fold_left (fun acc (r : Msg.op_result) -> Ts.min acc r.r_tr) Ts.infinity results
  in
  (Ts.(tw_max <= tr_min), tw_max)

(* The extension as first written: a fixpoint that reruns its pass
   over every (write, result) pair until nothing changes. *)
let extend_ref results =
  let results = Array.of_list results in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (w : Msg.op_result) ->
        if w.r_is_write then
          Array.iteri
            (fun i (r : Msg.op_result) ->
              if r.r_vid = w.r_prev_vid && Ts.(r.r_tr < w.r_tw) then begin
                results.(i) <- { r with r_tr = w.r_tw };
                changed := true
              end)
            results)
      results
  done;
  Array.to_list results

let safeguard_ref results = fold_pairs (extend_ref results)

(* Random result lists over a small vid space: each entry is a read of
   vid v or a write creating vid v whose predecessor is another small
   vid, so reads of a written-over version, own writes chained on own
   writes, and several writes after one version all occur. *)
let own_pairs_gen =
  QCheck.(
    list_of_size Gen.(0 -- 10)
      (quad bool (0 -- 6) (0 -- 6) (pair (0 -- 40) (0 -- 40))))

let result_of (w, vid, prev, (a, b)) =
  {
    Msg.r_key = vid;
    r_value = 0;
    r_vid = vid;
    r_tw = ts (min a b);
    r_tr = ts (max a b);
    r_is_write = w;
    r_prev_vid = (if w then prev else -1);
  }

let extend_matches_fixpoint =
  QCheck.Test.make ~name:"one-pass extension equals the fixpoint" ~count:1000
    own_pairs_gen (fun l ->
      let results = List.map result_of l in
      (* two replies, so own writes are also found across replies *)
      let replies = List.partition (fun (r : Msg.op_result) -> r.r_vid mod 2 = 0) results in
      let ok, tc = Client.safeguard [ fst replies; snd replies ]
      and ok', tc' = safeguard_ref results in
      extend_own_pairs results = extend_ref results && ok = ok' && Ts.equal tc tc')

(* Lists shaped like a transaction's results: a read-only one, or reads
   followed by own writes that share one t_w (an uncontended write lands
   at the transaction's timestamp) and whose predecessors are mostly
   versions read earlier in the list, sometimes the same one twice. A
   read below that t_w passes only through the own-write extension. *)
let txn_results_gen =
  let open QCheck.Gen in
  let pair = map (fun (a, b) -> (min a b, max a b)) (pair (0 -- 40) (0 -- 40)) in
  let read = map2 (fun vid p -> (false, vid, -1, p)) (1 -- 8) pair in
  let read_only = list_size (0 -- 10) read in
  let read_write =
    list_size (0 -- 5) read >>= fun reads ->
    let prevs = List.map (fun (_, vid, _, _) -> vid) reads in
    let prev = if prevs = [] then 1 -- 8 else frequency [ (4, oneofl prevs); (1, 1 -- 8) ] in
    0 -- 40 >>= fun tw ->
    list_size (1 -- 6) (map2 (fun vid prev -> (true, vid, prev, (tw, tw))) (9 -- 14) prev)
    >|= fun writes -> reads @ writes
  in
  oneof [ read_only; read_write; QCheck.gen own_pairs_gen ]

let safeguard_matches_reference =
  QCheck.Test.make ~name:"safeguard equals the extend-then-fold reference" ~count:2000
    (QCheck.make txn_results_gen) (fun l ->
      let results = List.map result_of l in
      let ok, tc = Client.safeguard [ results ]
      and ok', tc' = fold_pairs (extend_own_pairs results) in
      ok = ok' && Ts.equal tc tc')

let suite =
  [
    Alcotest.test_case "safeguard overlap" `Quick safeguard_passes_on_overlap;
    Alcotest.test_case "safeguard disjoint" `Quick safeguard_rejects_disjoint;
    Alcotest.test_case "async-aware shift" `Quick async_aware_shift;
    Alcotest.test_case "async-aware disabled" `Quick async_aware_disabled;
    Alcotest.test_case "ro ts covers tro" `Quick ro_ts_covers_tro;
    Alcotest.test_case "ewma tracks replies" `Quick ewma_tracks_replies;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ safeguard_boundary_equal; extend_matches_fixpoint; safeguard_matches_reference ]
