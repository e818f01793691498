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

(* The scratch of [ops_by_server], one per domain: each server's ops
   gathered so far, and the range of servers holding any. It is empty
   between calls, and grows only when a topology has more servers than
   any before it on the domain. *)
type scratch = {
  mutable by_server : Kernel.Types.op list array;
  mutable lo : int;
  mutable hi : int;
}

let scratch = Domain.DLS.new_key (fun () -> { by_server = [||]; lo = max_int; hi = -1 })

(* Gather [ops] last op first, so that consing leaves each server's
   ops in op order. *)
let rec gather t sc = function
  | [] -> ()
  | op :: rest ->
    gather t sc rest;
    let s = server_of_key t (Kernel.Types.op_key op) in
    (* ncc-lint: allow R18 — one cell per op: the groups are the result *)
    sc.by_server.(s) <- op :: sc.by_server.(s);
    if s < sc.lo then sc.lo <- s;
    if s > sc.hi then sc.hi <- s

(* The gathered groups of servers [lo .. s], consed onto [groups]
   highest first, so they come out ascending; the scratch is emptied. *)
let rec take sc lo s groups =
  if s < lo then groups
  else
    match sc.by_server.(s) with
    | [] -> take sc lo (s - 1) groups
    | ops ->
      sc.by_server.(s) <- [];
      (* ncc-lint: allow R18 — one pair and one cell per server group: the grouping is the result *)
      take sc lo (s - 1) ((s, ops) :: groups)

(* Group a transaction's operations by participant server, preserving
   per-server operation order. One pass gathers the ops into the
   domain's per-server scratch and one takes the groups out, so
   nothing but the result is allocated: a cell per op, and a pair and
   a cell per group. *)
let[@ncc.hot] ops_by_server t ops =
  let sc = Domain.DLS.get scratch in
  if Array.length sc.by_server < t.n_servers then sc.by_server <- Array.make t.n_servers [];
  gather t sc ops;
  let lo = sc.lo and hi = sc.hi in
  sc.lo <- max_int;
  sc.hi <- -1;
  take sc lo hi []
