(* A small embedding API for applications and examples: build a
   simulated cluster running one protocol, submit transactions from
   chosen clients, advance virtual time, observe outcomes. The
   protocol's message type stays hidden behind closures. *)

open Kernel

type t = {
  submit : client:Types.node_id -> Txn.t -> unit;
  run_for : float -> unit;  (* advance virtual time by this many seconds *)
  run_until_quiet : unit -> unit;  (* drain all pending events *)
  after : float -> (unit -> unit) -> unit;  (* schedule a callback *)
  now : unit -> float;
  servers : Types.node_id list;
  clients : Types.node_id list;
  version_orders : unit -> (Types.key * int list) list;
  topology : Cluster.Topology.t;
}

let make ?(seed = 1) ?(n_servers = 4) ?(n_clients = 4) ?(replicas_per_server = 0)
    ?(one_way = 200e-6) ?(jitter = 20e-6) ?(max_clock_offset = 1e-3)
    ?(cost = Cost.default) (module P : Protocol.S) ~on_outcome =
  Txn.reset_ids ();
  Mvstore.Store.reset_vids ();
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let topo = Cluster.Topology.make ~replicas_per_server ~n_servers ~n_clients () in
  let clock_rng = Sim.Rng.split rng in
  let clocks =
    Array.init (Cluster.Topology.n_nodes topo) (fun _ ->
        Sim.Clock.random clock_rng ~max_offset:max_clock_offset ~max_drift:1e-5)
  in
  let latency = Cluster.Latency.uniform ~one_way ~jitter_mean:jitter in
  let net =
    Cluster.Net.create engine (Sim.Rng.split rng) topo ~latency
      ~clock_of:(fun id -> clocks.(id))
  in
  Cluster.Net.name_tracks net;
  let phase m = Obs.Phase.code (P.msg_phase m) in
  let servers =
    List.map
      (fun id ->
        let srv = P.make_server (Cluster.Net.ctx net id) in
        Cluster.Net.set_handler ~phase net id
          ~cost:(fun m -> P.msg_cost cost m)
          ~handler:(fun ~src m -> P.server_handle srv ~src m);
        srv)
      (Cluster.Topology.servers topo)
  in
  List.iter
    (fun id ->
      let rep = P.make_replica (Cluster.Net.ctx net id) in
      Cluster.Net.set_handler ~phase net id
        ~cost:(fun m -> P.msg_cost cost m)
        ~handler:(fun ~src m -> P.replica_handle rep ~src m))
    (Cluster.Topology.replicas topo);
  let client_tbl = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let cl =
        P.make_client (Cluster.Net.ctx net id) ~report:(fun o -> on_outcome ~client:id o)
      in
      Cluster.Net.set_handler ~phase net id
        ~cost:(fun _ -> Cost.client cost)
        ~handler:(fun ~src m -> P.client_handle cl ~src m);
      Hashtbl.add client_tbl id cl)
    (Cluster.Topology.clients topo);
  {
    submit =
      (fun ~client txn ->
        match Hashtbl.find_opt client_tbl client with
        | Some cl -> P.submit cl txn
        | None -> invalid_arg "Testbed.submit: not a client node");
    run_for =
      (fun dt -> Sim.Engine.run ~until:(Sim.Engine.now engine +. dt) engine);
    after = (fun delay f -> Sim.Engine.schedule engine ~delay f);
    run_until_quiet = (fun () -> Sim.Engine.run engine);
    now = (fun () -> Sim.Engine.now engine);
    servers = Cluster.Topology.servers topo;
    clients = Cluster.Topology.clients topo;
    version_orders =
      (fun () ->
        List.concat_map
          (fun srv -> List.concat_map Mvstore.Store.all_committed_orders (P.server_stores srv))
          servers);
    topology = topo;
  }
