(* Topology, latency models and the message-passing runtime with its
   CPU model. *)

open Kernel

let topo = Cluster.Topology.make ~n_servers:4 ~n_clients:3 ()

let placement () =
  Alcotest.(check int) "nodes" 7 (Cluster.Topology.n_nodes topo);
  Alcotest.(check (list int)) "servers" [ 0; 1; 2; 3 ] (Cluster.Topology.servers topo);
  Alcotest.(check (list int)) "clients" [ 4; 5; 6 ] (Cluster.Topology.clients topo);
  Alcotest.(check bool) "4 is client" true (Cluster.Topology.is_client topo 4);
  Alcotest.(check bool) "3 is server" true (Cluster.Topology.is_server topo 3);
  Alcotest.(check int) "client index" 2 (Cluster.Topology.client_index topo 6)

let placement_covers_all_servers =
  QCheck.Test.make ~name:"server_of_key in range" ~count:500 QCheck.small_nat (fun k ->
      let s = Cluster.Topology.server_of_key topo k in
      s >= 0 && s < 4)

let ops_by_server_groups () =
  let ops = [ Types.Read 0; Types.Write (1, 9); Types.Read 4; Types.Read 2 ] in
  let grouped = Cluster.Topology.ops_by_server topo ops in
  Alcotest.(check int) "three servers involved" 3 (List.length grouped);
  (* per-server op order preserved: key 0 before key 4 on server 0 *)
  let s0 = Types.assoc_node 0 grouped in
  Alcotest.(check (list int)) "server0 order" [ 0; 4 ] (List.map Types.op_key s0)

(* The grouping as first written: a hash table of reversed per-server
   lists, read back through Detmap in ascending server order. *)
let ops_by_server_ref (topo : Cluster.Topology.t) ops =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun op ->
      let s = Cluster.Topology.server_of_key topo (Types.op_key op) in
      let prev = try Hashtbl.find tbl s with Not_found -> [] in
      Hashtbl.replace tbl s (op :: prev))
    ops;
  List.map (fun (s, ops_rev) -> (s, List.rev ops_rev)) (Detmap.sorted_bindings tbl)

(* Keys drawn from a small range repeat often; the value tags each op
   so order within a group is observable. *)
let ops_by_server_matches_ref =
  QCheck.Test.make ~name:"ops_by_server equals the hash-table grouping" ~count:500
    QCheck.(pair (1 -- 64) (list_of_size Gen.(0 -- 40) (pair bool (0 -- 200))))
    (fun (n_servers, ops) ->
      let topo = Cluster.Topology.make ~n_servers ~n_clients:1 () in
      let ops =
        List.mapi (fun i (w, k) -> if w then Types.Write (k, i) else Types.Read k) ops
      in
      List.equal
        (fun (s, g) (s', g') -> Int.equal s s' && g = g')
        (Cluster.Topology.ops_by_server topo ops)
        (ops_by_server_ref topo ops))

let latency_positive =
  QCheck.Test.make ~name:"latency samples positive and above base" ~count:300
    QCheck.(pair (0 -- 6) (0 -- 6))
    (fun (a, b) ->
      let rng = Sim.Rng.create 3 in
      let l = Cluster.Latency.uniform ~one_way:1e-3 ~jitter_mean:1e-4 in
      let d = Cluster.Latency.sample rng l ~src:a ~dst:b in
      d >= 1e-3)

let asymmetric_symmetric_pairs () =
  let rng = Sim.Rng.create 11 in
  let l =
    Cluster.Latency.asymmetric rng topo ~min_one_way:1e-3 ~max_one_way:2e-3
      ~jitter_mean:0.0
  in
  let d1 = Cluster.Latency.sample rng l ~src:1 ~dst:5 in
  let d2 = Cluster.Latency.sample rng l ~src:5 ~dst:1 in
  Alcotest.(check (float 1e-12)) "symmetric" d1 d2;
  Alcotest.(check bool) "within range" true (d1 >= 1e-3 && d1 <= 2e-3)

(* The dense per-pair table [Latency.asymmetric] used to build: every
   pair (a, b), a < b, drawn in order. *)
let dense_asymmetric rng topo ~min_one_way ~max_one_way =
  let n = Cluster.Topology.n_nodes topo in
  let table = Array.make_matrix n n 0.0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let d = min_one_way +. Sim.Rng.float rng (max_one_way -. min_one_way) in
      table.(a).(b) <- d;
      table.(b).(a) <- d
    done
  done;
  table

(* Keeping rows only for non-client nodes gives every pair with a
   non-client endpoint the dense table's delay, with and without
   replicas (which sit above the clients in the id space). *)
let asymmetric_matches_dense =
  QCheck.Test.make ~name:"asymmetric latency = dense table" ~count:200
    QCheck.(quad (1 -- 5) (1 -- 6) (0 -- 2) small_nat)
    (fun (n_servers, n_clients, replicas_per_server, seed) ->
      let topo = Cluster.Topology.make ~replicas_per_server ~n_servers ~n_clients () in
      let min_one_way = 1e-4 and max_one_way = 4e-4 in
      let l =
        Cluster.Latency.asymmetric (Sim.Rng.create seed) topo ~min_one_way ~max_one_way
          ~jitter_mean:0.0
      in
      let dense = dense_asymmetric (Sim.Rng.create seed) topo ~min_one_way ~max_one_way in
      let n = Cluster.Topology.n_nodes topo in
      let rng = Sim.Rng.create 0 in
      List.for_all
        (fun (a, b) ->
          (Cluster.Topology.is_client topo a
          && Cluster.Topology.is_client topo b
          && not (Kernel.Types.node_eq a b))
          || Float.equal (Cluster.Latency.sample rng l ~src:a ~dst:b) dense.(a).(b))
        (List.concat_map (fun a -> List.init n (fun b -> (a, b))) (List.init n Fun.id)))

(* One-message echo across the runtime, checking delivery, handler
   dispatch and message counting. *)
let net_delivery () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 1 in
  let latency = Cluster.Latency.uniform ~one_way:1e-3 ~jitter_mean:0.0 in
  let net = Cluster.Net.create engine rng topo ~latency ~clock_of:(fun _ -> Sim.Clock.perfect) in
  let got = ref [] in
  Cluster.Net.set_handler net 0 ~cost:(fun _ -> 10e-6)
    ~handler:(fun ~src msg -> got := (src, msg, Sim.Engine.now engine) :: !got);
  Cluster.Net.send net ~src:4 ~dst:0 "hello";
  Sim.Engine.run engine;
  (match !got with
   | [ (src, msg, time) ] ->
     Alcotest.(check int) "src" 4 src;
     Alcotest.(check string) "payload" "hello" msg;
     Alcotest.(check (float 1e-9)) "delivery + service" (1e-3 +. 10e-6) time
   | _ -> Alcotest.fail "expected exactly one delivery");
  Alcotest.(check int) "message counted" 1 (Cluster.Net.messages_sent net)

(* The single-CPU model: n messages at cost c arriving together finish
   at arrival + i*c, i.e. they queue. *)
let net_cpu_queueing () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 1 in
  let latency = Cluster.Latency.uniform ~one_way:1e-3 ~jitter_mean:0.0 in
  let net = Cluster.Net.create engine rng topo ~latency ~clock_of:(fun _ -> Sim.Clock.perfect) in
  let done_times = ref [] in
  Cluster.Net.set_handler net 0 ~cost:(fun _ -> 100e-6)
    ~handler:(fun ~src:_ _ -> done_times := Sim.Engine.now engine :: !done_times);
  for _ = 1 to 3 do
    Cluster.Net.send net ~src:4 ~dst:0 ()
  done;
  Sim.Engine.run engine;
  let times = List.sort Float.compare !done_times in
  Alcotest.(check int) "all served" 3 (List.length times);
  (match times with
   | [ t1; t2; t3 ] ->
     Alcotest.(check (float 1e-9)) "first" (1e-3 +. 1e-4) t1;
     Alcotest.(check (float 1e-9)) "second queued" (1e-3 +. 2e-4) t2;
     Alcotest.(check (float 1e-9)) "third queued" (1e-3 +. 3e-4) t3
   | _ -> Alcotest.fail "expected three");
  Alcotest.(check (float 1e-9)) "busy time" 3e-4 (Cluster.Net.busy_time net 0)

let suite =
  [
    Alcotest.test_case "placement" `Quick placement;
    Alcotest.test_case "ops_by_server grouping" `Quick ops_by_server_groups;
    Alcotest.test_case "asymmetric latency" `Quick asymmetric_symmetric_pairs;
    Alcotest.test_case "net delivery" `Quick net_delivery;
    Alcotest.test_case "net cpu queueing" `Quick net_cpu_queueing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        placement_covers_all_servers;
        ops_by_server_matches_ref;
        latency_positive;
        asymmetric_matches_dense;
      ]

let replica_placement () =
  let t = Cluster.Topology.make ~replicas_per_server:2 ~n_servers:3 ~n_clients:2 () in
  Alcotest.(check int) "nodes" 11 (Cluster.Topology.n_nodes t);
  Alcotest.(check int) "replicas" 6 (Cluster.Topology.n_replicas t);
  Alcotest.(check (list int)) "server 1's replicas" [ 7; 8 ]
    (Cluster.Topology.replicas_of t 1);
  Alcotest.(check int) "leader of node 8" 1 (Cluster.Topology.leader_of_replica t 8);
  Alcotest.(check bool) "8 is replica" true (Cluster.Topology.is_replica t 8);
  Alcotest.(check bool) "8 not client" false (Cluster.Topology.is_client t 8);
  List.iter
    (fun r ->
      Alcotest.(check int) "round trip" r
        (List.nth
           (Cluster.Topology.replicas_of t (Cluster.Topology.leader_of_replica t r))
           ((r - 5) mod 2)))
    (Cluster.Topology.replicas t)

let suite = suite @ [ Alcotest.test_case "replica placement" `Quick replica_placement ]
