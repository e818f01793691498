(* Replicated NCC: the paper's fault-tolerant deployment (§4.6).

   Each server leads a Raft group whose followers are its replica nodes
   (Cluster.Topology.replicas_of). State changes — the protocol messages
   that mutate server state — are proposed to the group, and a response
   is released to the client only once every state change it depends on
   has been replicated: the gate holds each outgoing reply until the
   group's commit index reaches the index of the last proposal made
   before the reply was produced. Followers apply the committed message
   stream to a shadow NCC server, so any majority can reconstruct the
   leader's state.

   Two replication modes, following §4.6:

   - [Every_request]: every Exec/Decide/Retry message is replicated
     before its effects are exposed (the paper's basic scheme);
   - [Deferred]: the optimization sketched as future work — replication
     is deferred to the transaction's last shot ("all state changes are
     replicated once and for all"), halving the replication traffic of
     multi-message transactions.

   The paper's claim to verify (see the `replication` bench): server
   replication increases latency but introduces **no additional
   aborts**, because commit/abort is decided purely by timestamps fixed
   at execution time, before replication starts. *)


type mode = Every_request | Deferred

type msg =
  | App of Ncc.Msg.msg
  | Raft of Ncc.Msg.msg Rsm.Raft.msg

let msg_cost (c : Harness.Cost.t) = function
  | App m -> Ncc.Msg.cost c m
  | Raft (Rsm.Raft.Append_entries { ae_entries; _ }) ->
    Harness.Cost.server c ~ops:(List.length ae_entries) ()
  | Raft _ -> Harness.Cost.server c ()

(* Raft traffic is the replication phase; app messages keep their NCC
   lifecycle phase. *)
let msg_phase = function
  | App m -> Ncc.Msg.phase m
  | Raft _ -> Obs.Phase.Replicate

(* A ctx presenting the inner NCC message type over the wrapped wire. *)
let inner_ctx (ctx : msg Cluster.Net.ctx) ~send : Ncc.Msg.msg Cluster.Net.ctx =
  {
    Cluster.Net.self = ctx.Cluster.Net.self;
    engine = ctx.Cluster.Net.engine;
    rng = ctx.Cluster.Net.rng;
    topo = ctx.Cluster.Net.topo;
    clock = ctx.Cluster.Net.clock;
    send;
    timer = ctx.Cluster.Net.timer;
  }

(* --- leader (server node) -------------------------------------------- *)

type server = {
  ctx : msg Cluster.Net.ctx;
  mode : mode;
  inner : Ncc.Server.t;
  mutable raft : Ncc.Msg.msg Rsm.Raft.t option;
  gate : (int * (unit -> unit)) Queue.t;  (* barrier index, release thunk *)
  backlog : Ncc.Msg.msg Queue.t;  (* commands awaiting re-election *)
  mutable commit_idx : int;
  mutable barrier : int;  (* raft index of the latest proposal *)
  mutable n_proposed : int;
  mutable n_gated : int;
}

let flush_gate s =
  let rec go () =
    match Queue.peek_opt s.gate with
    | Some (barrier, release) when barrier <= s.commit_idx ->
      ignore (Queue.pop s.gate);
      release ();
      go ()
    | Some _ | None -> ()
  in
  go ()

(* Raft timers for the server groups; wide-area deployments need wider
   timeouts (see [make_protocol ~raft_timeouts]). *)
type raft_timeouts = { election : float; heartbeat : float }

let default_timeouts = { election = 5e-3; heartbeat = 1e-3 }

let make_server cfg mode timeouts ctx =
  let rec s =
    lazy
      (let gated_send ~dst m =
         let this = Lazy.force s in
         if this.barrier <= this.commit_idx then ctx.Cluster.Net.send ~dst (App m)
         else begin
           this.n_gated <- this.n_gated + 1;
           Queue.push
             (this.barrier, fun () -> ctx.Cluster.Net.send ~dst (App m))
             this.gate
         end
       in
       let inner = Ncc.Server.create cfg (inner_ctx ctx ~send:gated_send) in
       {
         ctx;
         mode;
         inner;
         raft = None;
         gate = Queue.create ();
         backlog = Queue.create ();
         commit_idx = 0;
         barrier = 0;
         n_proposed = 0;
         n_gated = 0;
       })
  in
  let s = Lazy.force s in
  let peers = Cluster.Topology.replicas_of ctx.Cluster.Net.topo ctx.Cluster.Net.self in
  let raft =
    Rsm.Raft.create ~election_timeout:timeouts.election
      ~heartbeat_every:timeouts.heartbeat ~self:ctx.Cluster.Net.self ~peers
      ~send:(fun ~dst m -> ctx.Cluster.Net.send ~dst (Raft m))
      ~timer:ctx.Cluster.Net.timer
      ~rng:ctx.Cluster.Net.rng
      ~on_commit:(fun ~index _cmd ->
        s.commit_idx <- max s.commit_idx index;
        flush_gate s)
      ~initial_leader:true ()
  in
  s.raft <- Some raft;
  s

(* Which messages constitute replicated state changes in each mode. *)
let must_replicate mode (m : Ncc.Msg.msg) =
  match (mode, m) with
  | Every_request, (Ncc.Msg.Exec _ | Ncc.Msg.Decide _ | Ncc.Msg.Retry _) -> true
  | Deferred, Ncc.Msg.Exec x -> x.Ncc.Msg.x_is_last
  | Deferred, (Ncc.Msg.Decide _ | Ncc.Msg.Retry _) -> true
  | _, _ -> false

(* Leadership can lapse transiently (e.g. a heartbeat lost to a burst
   of wide-area jitter). Commands arriving meanwhile are backlogged and
   proposed when leadership returns; their responses stay gated on a
   barrier that only a successful proposal can lift. *)
let drain_backlog s raft =
  if Rsm.Raft.is_leader raft then
    while not (Queue.is_empty s.backlog) do
      let m = Queue.pop s.backlog in
      s.barrier <- Rsm.Raft.propose raft m;
      s.n_proposed <- s.n_proposed + 1
    done

let server_handle s ~src msg =
  match msg with
  | App m ->
    (match s.raft with
     | Some raft when must_replicate s.mode m ->
       drain_backlog s raft;
       if Rsm.Raft.is_leader raft then begin
         s.barrier <- Rsm.Raft.propose raft m;
         s.n_proposed <- s.n_proposed + 1
       end
       else begin
         Queue.push m s.backlog;
         (* gate everything after this on the eventual proposal *)
         s.barrier <- s.barrier + 1
       end
     | Some _ | None -> ());
    Ncc.Server.handle s.inner ~src m
  | Raft rm ->
    (match s.raft with
     | Some raft ->
       Rsm.Raft.handle raft ~src rm;
       drain_backlog s raft
     | None -> ())

let server_stores s = [ Ncc.Server.store s.inner ]

let server_counters s =
  ("proposed", float_of_int s.n_proposed)
  :: ("gated_replies", float_of_int s.n_gated)
  :: Ncc.Server.counters s.inner

(* --- follower (replica node) ------------------------------------------ *)

type replica = { r_raft : Ncc.Msg.msg Rsm.Raft.t; r_shadow : Ncc.Server.t }

let make_replica cfg timeouts (ctx : msg Cluster.Net.ctx) =
  let topo = ctx.Cluster.Net.topo in
  let self = ctx.Cluster.Net.self in
  let leader = Cluster.Topology.leader_of_replica topo self in
  let peers =
    leader
    :: List.filter
         (fun r -> not (Kernel.Types.node_eq r self))
         (Cluster.Topology.replicas_of topo leader)
  in
  (* the shadow state machine executes committed commands but talks to
     nobody: every outgoing message is dropped *)
  let shadow = Ncc.Server.create cfg (inner_ctx ctx ~send:(fun ~dst:_ _ -> ())) in
  let raft =
    Rsm.Raft.create ~election_timeout:timeouts.election
      ~heartbeat_every:timeouts.heartbeat ~self ~peers
      ~send:(fun ~dst m -> ctx.Cluster.Net.send ~dst (Raft m))
      ~timer:ctx.Cluster.Net.timer
      ~rng:ctx.Cluster.Net.rng
      ~on_commit:(fun ~index:_ cmd -> Ncc.Server.handle shadow ~src:leader cmd)
      ()
  in
  { r_raft = raft; r_shadow = shadow }

let replica_handle r ~src msg =
  match msg with
  | Raft rm -> Rsm.Raft.handle r.r_raft ~src rm
  | App _ -> () (* clients never address replicas *)

(* --- protocol values ---------------------------------------------------- *)

let make_protocol ?(config = Ncc.Msg.default_config) ?(mode = Every_request)
    ?(raft_timeouts = default_timeouts) ?(name = "NCC-R") () : Harness.Protocol.t =
  (module struct
    let name = name

    type nonrec msg = msg

    let msg_cost = msg_cost
    let msg_phase = msg_phase

    type nonrec server = server

    let make_server = make_server config mode raft_timeouts
    let server_handle = server_handle
    let server_stores = server_stores
    let server_counters = server_counters

    type client = Ncc.Client.t

    let make_client ctx ~report =
      (* plain NCC client over the wrapped wire *)
      Ncc.Client.create config
        (inner_ctx ctx ~send:(fun ~dst m -> ctx.Cluster.Net.send ~dst (App m)))
        ~report

    let client_handle cl ~src msg =
      match msg with App m -> Ncc.Client.handle cl ~src m | Raft _ -> ()

    let submit = Ncc.Client.submit
    let cancel = Ncc.Client.cancel
    let client_counters = Ncc.Client.counters

    type nonrec replica = replica

    let make_replica = make_replica config raft_timeouts
    let replica_handle = replica_handle
  end)

(* Basic scheme: every state-changing request is replicated before its
   effects are exposed. *)
let protocol = make_protocol ()

(* The §4.6 future-work optimization: replicate once at the last shot. *)
let protocol_deferred = make_protocol ~mode:Deferred ~name:"NCC-R-def" ()
