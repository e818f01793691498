(* Interactive (dynamic) transactions: shots computed from earlier
   reads. Covers the coordinator's continuation handling, the
   cross-shot read-modify-write safeguard path (own-pair extension via
   r_prev_vid), strict serializability under contention, and the
   baselines' rejection of the feature. *)

open Kernel

(* A transfer-style workload: read two accounts, write computed values. *)
let dynamic_workload ~n_keys =
  let gen rng ~client =
    let src = Sim.Rng.int rng n_keys in
    let dst = (src + 1 + Sim.Rng.int rng (n_keys - 1)) mod n_keys in
    let amount = 1 + Sim.Rng.int rng 50 in
    let continue reads =
      let bal a = Option.value ~default:0 (List.assoc_opt a reads) in
      if Sim.Rng.flip rng 0.1 then `Done
      else
        `Last [ Types.Write (src, bal src - amount); Types.Write (dst, bal dst + amount) ]
    in
    Txn.make ~label:"xfer" ~client ~dynamic:continue
      [ [ Types.Read src; Types.Read dst ] ]
  in
  { Harness.Workload_sig.name = "dynamic-xfer"; gen }

let e2e_strict () =
  List.iter
    (fun seed ->
      let cfg =
        {
          Harness.Runner.default with
          Harness.Runner.seed;
          n_servers = 4;
          n_clients = 6;
          offered_load = 1000.0;
          duration = 1.0;
          warmup = 0.3;
          drain = 2.0;
          check = Harness.Runner.Streaming;
        }
      in
      let r = Harness.Runner.run Ncc.protocol (dynamic_workload ~n_keys:40) cfg in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %s" seed r.Harness.Runner.check_result)
        true
        (String.length r.Harness.Runner.check_result >= 2
        && String.sub r.Harness.Runner.check_result 0 2 = "ok");
      Alcotest.(check bool) "progress" true (r.Harness.Runner.committed > 100))
    [ 1; 2; 3 ]

(* The continuation sees exactly the committed attempt's reads and can
   end the transaction without writing. *)
let continuation_reads () =
  let seen = ref [] in
  let outcome = ref None in
  let bed = ref None in
  let b () = Option.get !bed in
  let on_outcome ~client:_ o = outcome := Some o in
  bed := Some (Harness.Testbed.make ~n_servers:2 ~n_clients:1 Ncc.protocol ~on_outcome);
  let c = List.hd (b ()).Harness.Testbed.clients in
  (b ()).Harness.Testbed.submit ~client:c
    (Txn.make ~client:c [ [ Types.Write (1, 11); Types.Write (2, 22) ] ]);
  (b ()).Harness.Testbed.run_until_quiet ();
  let k reads =
    seen := reads;
    `Done
  in
  (b ()).Harness.Testbed.submit ~client:c
    (Txn.make ~label:"peek" ~client:c ~dynamic:k [ [ Types.Read 1; Types.Read 2 ] ]);
  (b ()).Harness.Testbed.run_until_quiet ();
  Alcotest.(check (list (pair int int))) "reads passed in order" [ (1, 11); (2, 22) ] !seen;
  match !outcome with
  | Some o ->
    Alcotest.(check bool) "committed" true (Outcome.committed o);
    Alcotest.(check int) "no writes" 0 (List.length o.Outcome.writes)
  | None -> Alcotest.fail "no outcome"

(* Multi-step continuations: `Shot continues, `Last finishes. *)
let multi_step () =
  let steps = ref 0 in
  let committed = ref false in
  let bed = ref None in
  let b () = Option.get !bed in
  let on_outcome ~client:_ (o : Outcome.t) =
    if Outcome.committed o then committed := true
  in
  bed := Some (Harness.Testbed.make ~n_servers:2 ~n_clients:1 Ncc.protocol ~on_outcome);
  let c = List.hd (b ()).Harness.Testbed.clients in
  let k _reads =
    incr steps;
    if !steps < 3 then `Shot [ Types.Write (100 + !steps, !steps) ]
    else `Last [ Types.Write (200, 99) ]
  in
  (b ()).Harness.Testbed.submit ~client:c
    (Txn.make ~label:"multi" ~client:c ~dynamic:k [ [ Types.Read 1 ] ]);
  (b ()).Harness.Testbed.run_until_quiet ();
  Alcotest.(check int) "continuation ran three times" 3 !steps;
  Alcotest.(check bool) "committed" true !committed

let baselines_reject () =
  let txn =
    Txn.make ~client:4 ~dynamic:(fun _ -> `Done) [ [ Types.Read 1 ] ]
  in
  List.iter
    (fun (name, p) ->
      let bed =
        Harness.Testbed.make ~n_servers:2 ~n_clients:1 p ~on_outcome:(fun ~client:_ _ -> ())
      in
      let c = List.hd bed.Harness.Testbed.clients in
      Alcotest.check_raises (name ^ " rejects")
        (Invalid_argument "interactive (dynamic) transactions require the NCC coordinator")
        (fun () -> bed.Harness.Testbed.submit ~client:c { txn with Txn.client = c }))
    [
      ("dOCC", Baselines.docc);
      ("d2PL-NW", Baselines.d2pl_no_wait);
      ("TAPIR-CC", Baselines.tapir_cc);
      ("MVTO", Baselines.mvto);
      ("Janus-CC", Baselines.janus_cc);
    ]

(* Cross-shot RMW passes the safeguard without smart retry when
   uninterrupted (the r_prev_vid own-pair extension). *)
let cross_shot_rmw_no_retry () =
  let committed = ref false in
  let bed = ref None in
  let b () = Option.get !bed in
  let p =
    Ncc.make_protocol
      ~config:{ Ncc.default_config with Ncc.Msg.smart_retry = false }
      ~name:"NCC-noSR" ()
  in
  bed :=
    Some
      (Harness.Testbed.make ~n_servers:2 ~n_clients:1 p ~on_outcome:(fun ~client:_ o ->
           if Outcome.committed o then committed := true));
  let c = List.hd (b ()).Harness.Testbed.clients in
  let k reads =
    let v = Option.value ~default:0 (List.assoc_opt 5 reads) in
    `Last [ Types.Write (5, v + 1) ]
  in
  (b ()).Harness.Testbed.submit ~client:c
    (Txn.make ~label:"rmw" ~client:c ~dynamic:k [ [ Types.Read 5 ] ]);
  (b ()).Harness.Testbed.run_until_quiet ();
  Alcotest.(check bool) "commits without smart retry" true !committed

let suite =
  [
    Alcotest.test_case "continuation sees reads" `Quick continuation_reads;
    Alcotest.test_case "multi-step continuation" `Quick multi_step;
    Alcotest.test_case "baselines reject dynamic" `Quick baselines_reject;
    Alcotest.test_case "cross-shot RMW needs no retry" `Quick cross_shot_rmw_no_retry;
    Alcotest.test_case "dynamic transfers strict" `Slow e2e_strict;
  ]

(* A transaction whose whole logic is interactive (no static shots). *)
let all_dynamic () =
  let committed = ref false in
  let bed = ref None in
  let b () = Option.get !bed in
  bed :=
    Some
      (Harness.Testbed.make ~n_servers:2 ~n_clients:1 Ncc.protocol
         ~on_outcome:(fun ~client:_ o ->
           if Outcome.committed o then committed := true));
  let c = List.hd (b ()).Harness.Testbed.clients in
  let step = ref 0 in
  let k _ =
    incr step;
    if !step = 1 then `Shot [ Types.Read 3 ] else `Last [ Types.Write (3, 7) ]
  in
  (b ()).Harness.Testbed.submit ~client:c (Txn.make ~label:"all-dyn" ~client:c ~dynamic:k []);
  (b ()).Harness.Testbed.run_until_quiet ();
  Alcotest.(check bool) "committed" true !committed

let suite = suite @ [ Alcotest.test_case "all-dynamic transaction" `Quick all_dynamic ]
