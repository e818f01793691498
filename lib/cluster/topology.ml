(* Node numbering: servers occupy ids [0, n_servers), clients occupy
   [n_servers, n_servers + n_clients), and — when a replicated protocol
   is in use — each server s owns [replicas_per_server] replica nodes
   at the top of the id space. Keys are partitioned across servers by
   residue, which spreads a dense integer key space evenly (workload
   generators randomize popular keys across the space, as the paper
   does to balance load). *)

type t = { n_servers : int; n_clients : int; replicas_per_server : int }

let make ?(replicas_per_server = 0) ~n_servers ~n_clients () =
  if n_servers <= 0 || n_clients <= 0 || replicas_per_server < 0 then
    invalid_arg "Topology.make";
  { n_servers; n_clients; replicas_per_server }

let n_replicas t = t.n_servers * t.replicas_per_server
let n_nodes t = t.n_servers + t.n_clients + n_replicas t

let is_server t id = id >= 0 && id < t.n_servers
let is_client t id = id >= t.n_servers && id < t.n_servers + t.n_clients

let is_replica t id =
  id >= t.n_servers + t.n_clients && id < n_nodes t

let servers t = List.init t.n_servers (fun i -> i)
let clients t = List.init t.n_clients (fun i -> t.n_servers + i)
let replicas t = List.init (n_replicas t) (fun i -> t.n_servers + t.n_clients + i)

(* The replica nodes backing server [s]. *)
let replicas_of t s =
  if not (is_server t s) then invalid_arg "Topology.replicas_of";
  List.init t.replicas_per_server (fun i ->
      t.n_servers + t.n_clients + (s * t.replicas_per_server) + i)

(* The server whose group replica node [id] belongs to. *)
let leader_of_replica t id =
  if not (is_replica t id) then invalid_arg "Topology.leader_of_replica";
  (id - t.n_servers - t.n_clients) / t.replicas_per_server

(* Dense index of a client among clients, for per-client arrays. *)
let client_index t id =
  if not (is_client t id) then invalid_arg "Topology.client_index";
  id - t.n_servers

let server_of_key t key = ((key mod t.n_servers) + t.n_servers) mod t.n_servers

(* Group a transaction's operations by participant server, preserving
   per-server operation order. Ops are taken last to first and consed
   onto their server's group in a list kept sorted by server, so each
   group comes out in op order; transactions touch a few servers, so
   the insertion walk is short. *)
let ops_by_server t ops =
  let rec add s op = function
    (* ncc-lint: allow R18 — the grouping is the result: a cell per op, a pair per server group *)
    | ((s', _) as g) :: rest when s' < s -> g :: add s op rest
    (* ncc-lint: allow R18 — the grouping is the result (as above) *)
    | (s', l) :: rest when Int.equal s' s -> (s, op :: l) :: rest
    (* ncc-lint: allow R18 — the grouping is the result (as above) *)
    | groups -> (s, [ op ]) :: groups
  in
  List.fold_left
    (fun groups op -> add (server_of_key t (Kernel.Types.op_key op)) op groups)
    [] (List.rev ops)
