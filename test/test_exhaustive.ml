(* Small-scope exhaustive safety: instead of sampling schedules with
   random jitter, enumerate *every* assignment of per-message fates
   from a small set for a two-transaction conflict scenario, and
   require every single execution to be strictly serializable.

   With two clients issuing one-shot transactions over two keys on two
   servers, the per-message choices below — two delays, a drop and a
   duplication — generate all the arrival/response interleavings that
   matter (request overtaking, response reordering, decide-vs-exec
   races, loss-triggered timeout retries, duplicate delivery). This is
   the kind of coverage random testing only reaches eventually. *)

open Kernel

(* What happens to the k-th message sent system-wide. *)
type fate = Delay of float | Drop | Dup

let choices = [ Delay 5e-5; Delay 4e-4; Drop; Dup ]
let late_delay = 1e-4 (* positions beyond the schedule vector *)
let dup_delay = 2.5e-4 (* second delivery of a duplicated message *)
let max_attempts = 3
let attempt_timeout = 0.02

(* A deterministic rig: the k-th message sent system-wide gets the fate
   chosen for position k in the schedule vector. Every node speaks
   [Ncc.Msg.msg], so the dispatch table is plainly typed. *)
let run_schedule ~cfg ~txns (fates : fate array) =
  Txn.reset_ids ();
  Mvstore.Store.reset_vids ();
  let engine = Sim.Engine.create () in
  let topo = Cluster.Topology.make ~n_servers:2 ~n_clients:2 () in
  let handlers : (int, src:int -> Ncc.Msg.msg -> unit) Hashtbl.t = Hashtbl.create 8 in
  let msg_counter = ref 0 in
  let ctx node : Ncc.Msg.msg Cluster.Net.ctx =
    {
      Cluster.Net.self = node;
      engine;
      rng = Sim.Rng.create (77 + node);
      topo;
      clock = Sim.Clock.perfect;
      send =
        (fun ~dst msg ->
          let k = !msg_counter in
          incr msg_counter;
          let deliver delay =
            Sim.Engine.schedule engine ~delay (fun () ->
                match Hashtbl.find_opt handlers dst with
                | Some h -> h ~src:node msg
                | None -> ())
          in
          match if k < Array.length fates then fates.(k) else Delay late_delay with
          | Delay d -> deliver d
          | Drop -> ()
          | Dup ->
            deliver late_delay;
            deliver dup_delay);
      timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
    }
  in
  let servers =
    List.map
      (fun id ->
        let s = Ncc.Server.create cfg (ctx id) in
        Hashtbl.replace handlers id (fun ~src msg -> Ncc.Server.handle s ~src msg);
        s)
      [ 0; 1 ]
  in
  let outcomes = ref [] in
  let starts = Hashtbl.create 8 in
  let attempts = Hashtbl.create 8 in
  let pending = Hashtbl.create 8 in (* txn id -> (client, txn) for retries *)
  let clients = ref [] in
  (* dropped messages strand attempts; a per-attempt timeout cancels
     and (via the report callback below) resubmits, like the harness *)
  let rec submit_txn client_id txn =
    let c = Types.assoc_node client_id !clients in
    let id = txn.Txn.id in
    let a = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts id) in
    Hashtbl.replace attempts id a;
    if not (Hashtbl.mem starts id) then
      Hashtbl.replace starts id (Sim.Engine.now engine);
    Hashtbl.replace pending id (client_id, txn);
    Ncc.Client.submit c txn;
    Sim.Engine.schedule engine ~delay:attempt_timeout (fun () ->
        if Hashtbl.mem pending id && Hashtbl.find attempts id = a then
          ignore (Ncc.Client.cancel c txn))
  and report o =
    outcomes := (Sim.Engine.now engine, o) :: !outcomes;
    let id = o.Outcome.txn.Txn.id in
    if Outcome.committed o then Hashtbl.remove pending id
    else
      match Hashtbl.find_opt pending id with
      | Some (client_id, txn)
        when Option.value ~default:0 (Hashtbl.find_opt attempts id) < max_attempts ->
        Hashtbl.remove pending id;
        Sim.Engine.schedule engine ~delay:1e-4 (fun () -> submit_txn client_id txn)
      | _ -> Hashtbl.remove pending id
  in
  clients :=
    List.map
      (fun id ->
        let c = Ncc.Client.create cfg (ctx id) ~report in
        Hashtbl.replace handlers id (fun ~src msg -> Ncc.Client.handle c ~src msg);
        (id, c))
      [ 2; 3 ];
  List.iteri
    (fun i (client, txn_of) ->
      Sim.Engine.schedule engine
        ~delay:(0.001 +. (1e-5 *. float_of_int i))
        (fun () -> submit_txn client (txn_of ())))
    txns;
  Sim.Engine.run ~until:0.2 engine;
  (* verify the committed history *)
  let chk = Checker.Rsg.create () in
  List.iter
    (fun (finish, (o : Outcome.t)) ->
      if Outcome.committed o then
        Checker.Rsg.record_commit chk ~txn:o.txn.Txn.id
          ~start:(Hashtbl.find starts o.txn.Txn.id)
          ~finish
          ~reads:(List.map (fun (k, vid, _) -> (k, vid)) o.Outcome.reads)
          ~writes:o.Outcome.writes)
    !outcomes;
  List.iter
    (fun srv ->
      List.iter
        (fun (key, vids) -> Checker.Rsg.record_version_order chk key vids)
        (Mvstore.Store.all_committed_orders (Ncc.Server.store srv)))
    servers;
  (!outcomes, Checker.Rsg.check chk ~strict:true)

(* All fate vectors of length [n] over the choice set. *)
let rec schedules choices n =
  if n = 0 then [ [] ]
  else
    List.concat_map (fun rest -> List.map (fun c -> c :: rest) choices) (schedules choices (n - 1))

let exhaust ~name ~txns ~positions =
  let count = ref 0 and committed_some = ref false in
  List.iter
    (fun sched ->
      incr count;
      let outcomes, verdict =
        run_schedule ~cfg:Ncc.Msg.default_config ~txns (Array.of_list sched)
      in
      (match verdict with
       | Checker.Verdict.Ok -> ()
       | Checker.Verdict.Violation a ->
         Alcotest.fail
           (Printf.sprintf "%s schedule %d: %s" name !count
              (Checker.Verdict.anomaly_to_string a)));
      if List.exists (fun (_, o) -> Outcome.committed o) outcomes then
        committed_some := true)
    (schedules choices positions);
  Alcotest.(check bool) (name ^ ": some schedule commits") true !committed_some;
  Alcotest.(check bool)
    (Printf.sprintf "%s: exhausted %d schedules" name !count)
    true
    (!count = int_of_float (float_of_int (List.length choices) ** float_of_int positions))

(* Write-write conflict across two keys: the classic cross pattern. *)
let ww_cross () =
  exhaust ~name:"ww-cross" ~positions:6
    ~txns:
      [
        (2, fun () -> Txn.make ~label:"t1" ~client:2
                        [ [ Types.Write (0, 101); Types.Write (1, 102) ] ]);
        (3, fun () -> Txn.make ~label:"t2" ~client:3
                        [ [ Types.Write (1, 201); Types.Write (0, 202) ] ]);
      ]

(* Read-modify-write racing a read-only transaction. *)
let rmw_vs_ro () =
  exhaust ~name:"rmw-vs-ro" ~positions:6
    ~txns:
      [
        (2, fun () -> Txn.make ~label:"t1" ~client:2
                        [ [ Types.Read 0; Types.Write (0, 101); Types.Write (1, 102) ] ]);
        (3, fun () -> Txn.make ~label:"t2" ~client:3 [ [ Types.Read 0; Types.Read 1 ] ]);
      ]

(* Two read-modify-writes on the same hot key plus a private key each. *)
let rmw_same_key () =
  exhaust ~name:"rmw-same-key" ~positions:6
    ~txns:
      [
        (2, fun () -> Txn.make ~label:"t1" ~client:2
                        [ [ Types.Read 0; Types.Write (0, 101); Types.Read 1 ] ]);
        (3, fun () -> Txn.make ~label:"t2" ~client:3
                        [ [ Types.Read 0; Types.Write (0, 201); Types.Read 1 ] ]);
      ]

(* Multi-shot vs one-shot interleaving. *)
let multishot_vs_oneshot () =
  exhaust ~name:"multishot" ~positions:6
    ~txns:
      [
        (2, fun () -> Txn.make ~label:"t1" ~client:2
                        [ [ Types.Read 0 ]; [ Types.Write (1, 102) ] ]);
        (3, fun () -> Txn.make ~label:"t2" ~client:3
                        [ [ Types.Read 1; Types.Write (0, 201) ] ]);
      ]

let suite =
  [
    Alcotest.test_case "exhaustive ww cross" `Slow ww_cross;
    Alcotest.test_case "exhaustive rmw vs ro" `Slow rmw_vs_ro;
    Alcotest.test_case "exhaustive rmw same key" `Slow rmw_same_key;
    Alcotest.test_case "exhaustive multishot" `Slow multishot_vs_oneshot;
  ]
