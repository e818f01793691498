(* The message-passing runtime connecting protocol actors.

   Each node has a single logical CPU: incoming messages queue at the
   node and are serviced one at a time; servicing a message costs
   [cost msg] seconds of CPU before the handler runs. This M/G/1-style
   model is what turns "protocol X sends more messages per transaction"
   into the queueing delay and throughput ceiling the paper's
   latency-vs-throughput figures show.

   Handlers run at service completion. Sends made from within a handler
   are charged no extra CPU (send cost can be folded into the message's
   own cost model).

   The network optionally interprets a [Faults.spec]: messages can be
   dropped, duplicated or delayed, links partitioned, and nodes
   crashed/restarted. All fault randomness comes from a dedicated
   stream split off after node construction, so the fault-free
   configuration consumes exactly the same RNG draws as it always has
   and every historical result is unchanged. *)

open Kernel

type 'msg ctx = {
  self : Types.node_id;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  topo : Topology.t;
  clock : Sim.Clock.t;
  send : dst:Types.node_id -> 'msg -> unit;
  timer : delay:float -> (unit -> unit) -> unit;
}

(* Local physical-clock reading in integer nanoseconds (the timestamp
   unit used throughout the protocols). The engine reads its own clock
   cell, so no boxed time crosses the call. *)
let local_ns ctx = Sim.Engine.local_ns ctx.engine ctx.clock

let now ctx = Sim.Engine.now ctx.engine

(* The inbox is a ring buffer over parallel arrays rather than a
   [Queue.t] of tuples: enqueueing a message then costs zero
   allocations (the tuple, its boxed float, and the queue cell all
   disappear), which matters because every simulated message passes
   through here exactly once. Slots carry the source node, the message,
   the enqueue time, and whether the node was occupied at enqueue
   (drives the "queued" span without re-deriving it from float
   arithmetic at service time). Capacities are powers of two so the
   index wrap is a mask. [ib_dummy] is the first message ever enqueued;
   popped and cleared slots are repointed at it so the ring does not
   retain handled messages. *)
type 'msg inbox = {
  mutable ib_srcs : int array;
  mutable ib_msgs : 'msg array;
  mutable ib_enqs : float array;  (* flat float array: unboxed *)
  mutable ib_queued : Bytes.t;
  mutable ib_head : int;
  mutable ib_len : int;
  mutable ib_dummy : 'msg option;
}

let ib_create () =
  {
    ib_srcs = [||];
    ib_msgs = [||];
    ib_enqs = [||];
    ib_queued = Bytes.empty;
    ib_head = 0;
    ib_len = 0;
    ib_dummy = None;
  }

let ib_is_empty ib = ib.ib_len = 0

let ib_grow ib msg =
  let cap = Array.length ib.ib_msgs in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let msgs = Array.make ncap msg in
  let srcs = Array.make ncap 0 in
  let enqs = Array.make ncap 0.0 in
  let queued = Bytes.make ncap '\000' in
  for k = 0 to ib.ib_len - 1 do
    let i = (ib.ib_head + k) land (cap - 1) in
    msgs.(k) <- ib.ib_msgs.(i);
    srcs.(k) <- ib.ib_srcs.(i);
    enqs.(k) <- ib.ib_enqs.(i);
    Bytes.set queued k (Bytes.get ib.ib_queued i)
  done;
  ib.ib_msgs <- msgs;
  ib.ib_srcs <- srcs;
  ib.ib_enqs <- enqs;
  ib.ib_queued <- queued;
  ib.ib_head <- 0

(* Returns the slot, whose enqueue time the caller stamps in place. *)
let ib_push ib ~src msg ~was_queued =
  (* ncc-lint: allow R18 — written once per inbox lifetime: the first push seeds the grow/clear dummy slot *)
  (match ib.ib_dummy with None -> ib.ib_dummy <- Some msg | Some _ -> ());
  if ib.ib_len = Array.length ib.ib_msgs then ib_grow ib msg;
  let i = (ib.ib_head + ib.ib_len) land (Array.length ib.ib_msgs - 1) in
  ib.ib_srcs.(i) <- src;
  ib.ib_msgs.(i) <- msg;
  Bytes.set ib.ib_queued i (if was_queued then '\001' else '\000');
  ib.ib_len <- ib.ib_len + 1;
  i

(* Discard the oldest slot; service reads its fields in place first. *)
let ib_drop ib =
  let i = ib.ib_head in
  (match ib.ib_dummy with Some d -> ib.ib_msgs.(i) <- d | None -> ());
  ib.ib_head <- (i + 1) land (Array.length ib.ib_msgs - 1);
  ib.ib_len <- ib.ib_len - 1

(* Drop everything (crash): clears message slots so nothing is
   retained across the outage. *)
let ib_clear ib =
  (match ib.ib_dummy with
   | Some d ->
     let cap = Array.length ib.ib_msgs in
     for k = 0 to ib.ib_len - 1 do
       ib.ib_msgs.((ib.ib_head + k) land (cap - 1)) <- d
     done
   | None -> ());
  ib.ib_head <- 0;
  ib.ib_len <- 0

type 'msg node = {
  ctx : 'msg ctx;
  mutable handler : src:Types.node_id -> 'msg -> unit;
  mutable cost : 'msg -> float;
  mutable phase_of : 'msg -> int;
      (* phase code of handler-execution spans, -1 if unlabelled *)
  inbox : 'msg inbox;
  mutable busy : bool;
  mutable up : bool;
  (* Bumped on every crash; a service completion scheduled before the
     crash sees a stale epoch and abandons its message. *)
  mutable epoch : int;
  mutable down_until : float;
  mutable on_restart : (unit -> unit) option;
  (* Fault-free service completion, allocated once per node (see
     [service]): the in-service message stays at the ring head until
     completion. *)
  mutable complete : unit -> unit;
  (* Start time and CPU cost of the message in service, for its Handle
     span: a flat float array, so neither write nor read boxes. *)
  scratch : float array;
}

type fault_stats = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crashes : int;
}

type 'msg t = {
  net_engine : Sim.Engine.t;
  net_rng : Sim.Rng.t;
  net_topo : Topology.t;
  latency : Latency.t;
  faults : Faults.spec;
  (* Aliases the parent rng at construction and is re-pointed to a
     private split only when faults are enabled, so the fault-free
     path never draws from it. *)
  mutable fault_rng : Sim.Rng.t;
  nodes : 'msg node array;
  mutable messages_sent : int;
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_delayed : int;
  mutable n_crashes : int;
  mutable busy_time : float array;  (* per-node CPU seconds consumed *)
  (* In-flight message arena (fault-free send path): the inbox ring's
     SoA discipline extended to the network hop. A send claims a slot
     off the freelist, parks (src, dst, flight, msg) in the parallel
     arrays, and schedules the slot's *preallocated* delivery thunk —
     so steady-state dispatch allocates no closure, flight record or
     option per message where [send_clean] used to close over
     (src, flight, node, msg) every time. (What remains per message is
     the latency sample and its RNG draw, boxed because they cross
     module boundaries; the zero-alloc test pins the total at 8 words
     or fewer.)
     Slots are released at delivery, before the handler runs, so
     a handler's own sends can reuse them. The faulty path keeps
     per-copy closures (duplicates make slot lifetime ambiguous, and
     faults already allocate). *)
  mutable fl_srcs : int array;
  mutable fl_dsts : int array;
  mutable fl_flights : int array;
  mutable fl_msgs : 'msg array;
  mutable fl_thunks : (unit -> unit) array;
  mutable fl_free : int array;     (* stack of free slot indices *)
  mutable fl_free_top : int;
  mutable fl_dummy : 'msg option;  (* slot-clearing filler *)
}

(* Handler execution at service completion: one Handle event (which is
   also the handler's span), then the handler itself. Shared by both
   service paths. Tracing is passive — no RNG draws, no scheduled
   events — so it cannot change a run's outcome. *)
let finish_service t node ~src msg =
  if Sim.Trace.active () then
    Sim.Trace.emit ~time:(Sim.Engine.now t.net_engine) Handle ~src
      ~dst:node.ctx.self ~x:0.0 ~start:node.scratch.(0) ~dur:node.scratch.(1) ~id:0
      ~code:(node.phase_of msg);
  node.handler ~src msg

(* Start servicing the inbox head: charge its CPU cost, note the start
   time and cost in [scratch], and schedule the completion. *)
let rec service t node =
  if node.up && (not node.busy) && not (ib_is_empty node.inbox) then begin
    node.busy <- true;
    let ib = node.inbox in
    let i = ib.ib_head in
    let src = ib.ib_srcs.(i) and msg = ib.ib_msgs.(i) in
    let c = node.cost msg in
    if Bytes.get ib.ib_queued i = '\001' && Sim.Trace.active () then begin
      let start = Sim.Engine.now t.net_engine in
      let enq = ib.ib_enqs.(i) in
      Sim.Trace.emit ~time:start Queued ~src ~dst:node.ctx.self ~x:0.0 ~start:enq
        ~dur:(start -. enq) ~id:0 ~code:0
    end;
    t.busy_time.(node.ctx.self) <- t.busy_time.(node.ctx.self) +. c;
    Sim.Engine.stamp t.net_engine node.scratch 0;
    node.scratch.(1) <- c;
    if Faults.is_none t.faults then
      (* Fault-free fast path: no crash can ever cancel or overlap a
         pending completion, so the per-message completion closure is
         replaced by [node.complete] (allocated once at construction),
         and the message stays at the ring head until it completes. *)
      Sim.Engine.schedule t.net_engine ~delay:c node.complete
    else begin
      ib_drop ib;
      let epoch = node.epoch in
      (* ncc-lint: allow R17 — the completion thunk is the scheduled event; it must capture the in-flight message *)
      Sim.Engine.schedule t.net_engine ~delay:c (fun () ->
          if node.epoch = epoch then begin
            finish_service t node ~src msg;
            node.busy <- false;
            service t node
          end)
    end
  end

and complete_fast t node () =
  let ib = node.inbox in
  let i = ib.ib_head in
  let src = ib.ib_srcs.(i) and msg = ib.ib_msgs.(i) in
  ib_drop ib;
  finish_service t node ~src msg;
  node.busy <- false;
  service t node

(* [flight] is the message's correlation id ([messages_sent] at send
   time), carried by its Send (and Duplicated) events and by the Arrive
   of each copy. Arrive is emitted even when the message is lost below,
   so every flight span closes. *)
let deliver t ~src ~flight node msg =
  let dst = node.ctx.self in
  if Sim.Trace.active () then
    Sim.Trace.emit ~time:(Sim.Engine.now t.net_engine) Arrive ~src ~dst ~x:0.0
      ~start:0.0 ~dur:0.0 ~id:flight ~code:0;
  if node.up then begin
    let was_queued = node.busy || not (ib_is_empty node.inbox) in
    let i = ib_push node.inbox ~src msg ~was_queued in
    Sim.Engine.stamp t.net_engine node.inbox.ib_enqs i;
    service t node
  end
  else if Sim.Trace.active () then
    Sim.Trace.ev ~time:(Sim.Engine.now t.net_engine) Lost_down ~src ~dst ~x:0.0

(* Deliver the message parked in arena slot [i]. The slot is released
   (and its message reference cleared) before [deliver] runs, so sends
   made by the handler reuse it instead of growing the arena. *)
let deliver_slot t i =
  let src = t.fl_srcs.(i)
  and dst = t.fl_dsts.(i)
  and flight = t.fl_flights.(i)
  and msg = t.fl_msgs.(i) in
  (match t.fl_dummy with Some d -> t.fl_msgs.(i) <- d | None -> ());
  t.fl_free.(t.fl_free_top) <- i;
  t.fl_free_top <- t.fl_free_top + 1;
  deliver t ~src ~flight t.nodes.(dst) msg

(* Double the arena; the only place delivery thunks are allocated, so
   once the arena has grown to the run's peak in-flight count a send
   allocates no per-message structure at all. *)
let fl_grow t msg =
  let cap = Array.length t.fl_msgs in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let srcs = Array.make ncap 0 in
  Array.blit t.fl_srcs 0 srcs 0 cap;
  t.fl_srcs <- srcs;
  let dsts = Array.make ncap 0 in
  Array.blit t.fl_dsts 0 dsts 0 cap;
  t.fl_dsts <- dsts;
  let flights = Array.make ncap 0 in
  Array.blit t.fl_flights 0 flights 0 cap;
  t.fl_flights <- flights;
  let msgs = Array.make ncap msg in
  Array.blit t.fl_msgs 0 msgs 0 cap;
  t.fl_msgs <- msgs;
  let thunks = Array.make ncap (fun () -> ()) in
  Array.blit t.fl_thunks 0 thunks 0 cap;
  for i = cap to ncap - 1 do
    (* ncc-lint: allow R18 — amortised capacity doubling: the one place delivery thunks are built; steady-state sends reuse them *)
    thunks.(i) <- (fun () -> deliver_slot t i)
  done;
  t.fl_thunks <- thunks;
  let free = Array.make ncap 0 in
  (* only the fresh slots are free (grow runs with the freelist empty);
     stack them so the lowest index hands out first (cosmetic: keeps
     slot numbers stable across runs) *)
  for k = 0 to ncap - cap - 1 do
    free.(k) <- ncap - 1 - k
  done;
  t.fl_free <- free;
  t.fl_free_top <- ncap - cap

let fl_alloc t msg =
  (* ncc-lint: allow R18 — written once per arena lifetime: the first send seeds the slot-clearing dummy *)
  (match t.fl_dummy with None -> t.fl_dummy <- Some msg | Some _ -> ());
  if t.fl_free_top = 0 then fl_grow t msg;
  let top = t.fl_free_top - 1 in
  t.fl_free_top <- top;
  t.fl_free.(top)

let send_clean t ~src ~dst msg =
  let delay = Latency.sample t.net_rng t.latency ~src ~dst in
  let flight = t.messages_sent in
  if Sim.Trace.active () then
    Sim.Trace.emit ~time:(Sim.Engine.now t.net_engine) Send ~src ~dst ~x:delay
      ~start:0.0 ~dur:0.0 ~id:flight ~code:0;
  let i = fl_alloc t msg in
  t.fl_srcs.(i) <- src;
  t.fl_dsts.(i) <- dst;
  t.fl_flights.(i) <- flight;
  t.fl_msgs.(i) <- msg;
  Sim.Engine.schedule t.net_engine ~delay t.fl_thunks.(i)

let send_faulty t ~src ~dst msg =
  let now = Sim.Engine.now t.net_engine in
  if not t.nodes.(src).up then begin
    if Sim.Trace.active () then
      Sim.Trace.ev ~time:now Suppressed ~src ~dst ~x:0.0
  end
  else if Faults.partitioned t.faults ~now ~a:src ~b:dst then begin
    t.n_dropped <- t.n_dropped + 1;
    if Sim.Trace.active () then
      Sim.Trace.ev ~time:now Partitioned ~src ~dst ~x:0.0
  end
  else if Sim.Rng.flip t.fault_rng t.faults.Faults.drop then begin
    t.n_dropped <- t.n_dropped + 1;
    if Sim.Trace.active () then Sim.Trace.ev ~time:now Dropped ~src ~dst ~x:0.0
  end
  else begin
    let base = Latency.sample t.net_rng t.latency ~src ~dst in
    let extra =
      if Sim.Rng.flip t.fault_rng t.faults.Faults.delay_prob then begin
        t.n_delayed <- t.n_delayed + 1;
        Sim.Rng.float t.fault_rng t.faults.Faults.delay_extra
      end
      else 0.0
    in
    let node = t.nodes.(dst) in
    let flight = t.messages_sent in
    if Sim.Trace.active () then
      Sim.Trace.emit ~time:now Send ~src ~dst ~x:(base +. extra) ~start:0.0 ~dur:0.0
        ~id:flight ~code:0;
    (* ncc-lint: allow R17 — the delivery thunk is the scheduled event; one closure per in-flight message is the event-queue contract *)
    Sim.Engine.schedule t.net_engine ~delay:(base +. extra) (fun () ->
        deliver t ~src ~flight node msg);
    if Sim.Rng.flip t.fault_rng t.faults.Faults.duplicate then begin
      t.n_duplicated <- t.n_duplicated + 1;
      let dup_delay = Latency.sample t.net_rng t.latency ~src ~dst in
      (* The duplicate is its own network copy: a second flight span
         under the same correlation id keeps the trace balanced. *)
      if Sim.Trace.active () then
        Sim.Trace.emit ~time:now Duplicated ~src ~dst ~x:dup_delay ~start:0.0
          ~dur:0.0 ~id:flight ~code:0;
      (* ncc-lint: allow R17 — the duplicate delivery thunk is its own scheduled event *)
      Sim.Engine.schedule t.net_engine ~delay:dup_delay (fun () ->
          deliver t ~src ~flight node msg)
    end
  end

let send t ~src ~dst msg =
  t.messages_sent <- t.messages_sent + 1;
  if Faults.is_none t.faults then send_clean t ~src ~dst msg
  else send_faulty t ~src ~dst msg

let crash t id =
  let node = t.nodes.(id) in
  if node.up then begin
    node.up <- false;
    node.epoch <- node.epoch + 1;
    ib_clear node.inbox;
    node.busy <- false;
    t.n_crashes <- t.n_crashes + 1;
    if Sim.Trace.active () then
      Sim.Trace.ev ~time:(Sim.Engine.now t.net_engine) Crash ~src:id ~dst:id
        ~x:0.0
  end

let restart t id =
  let node = t.nodes.(id) in
  if not node.up then begin
    node.up <- true;
    if Sim.Trace.active () then
      Sim.Trace.ev ~time:(Sim.Engine.now t.net_engine) Restart ~src:id ~dst:id
        ~x:0.0;
    (match node.on_restart with Some f -> f () | None -> ());
    service t node
  end

let install_crashes t =
  List.iter
    (fun c ->
      let open Faults in
      if c.cr_node >= 0 && c.cr_node < Array.length t.nodes then begin
        Sim.Engine.schedule t.net_engine ~delay:c.cr_at (fun () ->
            let node = t.nodes.(c.cr_node) in
            let until = c.cr_at +. c.cr_for in
            if node.up then begin
              node.down_until <- until;
              crash t c.cr_node
            end
            else if until > node.down_until then node.down_until <- until);
        Sim.Engine.schedule t.net_engine ~delay:(c.cr_at +. c.cr_for)
          (fun () ->
            let node = t.nodes.(c.cr_node) in
            (* Overlapping crash windows: only the restart matching the
               latest window end actually brings the node back. *)
            (* ncc-lint: allow R8 — window-end check carries an explicit 1e-12 tolerance *)
            if Sim.Engine.now t.net_engine >= node.down_until -. 1e-12 then
              restart t c.cr_node)
      end)
    t.faults.Faults.crashes

let create ?(faults = Faults.none) engine rng topo ~latency ~clock_of =
  let n = Topology.n_nodes topo in
  let rec t =
    lazy
      {
        net_engine = engine;
        net_rng = Sim.Rng.split rng;
        net_topo = topo;
        latency;
        faults;
        fault_rng = rng;
        nodes =
          Array.init n (fun id ->
              let ctx =
                {
                  self = id;
                  engine;
                  rng = Sim.Rng.split rng;
                  topo;
                  clock = clock_of id;
                  send = (fun ~dst msg -> send (Lazy.force t) ~src:id ~dst msg);
                  timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
                }
              in
              {
                ctx;
                handler = (fun ~src:_ _ -> failwith "Net: handler not set");
                cost = (fun _ -> 0.0);
                phase_of = (fun _ -> -1);
                inbox = ib_create ();
                busy = false;
                up = true;
                epoch = 0;
                down_until = 0.0;
                on_restart = None;
                complete = (fun () -> ());
                scratch = Array.make 2 0.0;
              });
        messages_sent = 0;
        n_dropped = 0;
        n_duplicated = 0;
        n_delayed = 0;
        n_crashes = 0;
        busy_time = Array.make n 0.0;
        fl_srcs = [||];
        fl_dsts = [||];
        fl_flights = [||];
        fl_msgs = [||];
        fl_thunks = [||];
        fl_free = [||];
        fl_free_top = 0;
        fl_dummy = None;
      }
  in
  let t = Lazy.force t in
  Array.iter (fun node -> node.complete <- complete_fast t node) t.nodes;
  (* Split the fault stream only when faults are on: the fault-free
     configuration must consume exactly the historical RNG draws. *)
  if not (Faults.is_none faults) then begin
    t.fault_rng <- Sim.Rng.split rng;
    install_crashes t
  end;
  t

let ctx t id = t.nodes.(id).ctx

let set_handler ?(phase = fun _ -> -1) t id ~cost ~handler =
  t.nodes.(id).cost <- cost;
  t.nodes.(id).phase_of <- phase;
  t.nodes.(id).handler <- handler

let name_tracks t =
  if Sim.Trace.active () then begin
    let name role =
      List.iter (fun id ->
          Sim.Trace.emit ~time:(Sim.Engine.now t.net_engine) Track ~src:id ~dst:id
            ~x:0.0 ~start:0.0 ~dur:0.0 ~id:0 ~code:role)
    in
    name Sim.Trace.server_track (Topology.servers t.net_topo);
    name Sim.Trace.replica_track (Topology.replicas t.net_topo);
    name Sim.Trace.client_track (Topology.clients t.net_topo)
  end

let set_on_restart t id f = t.nodes.(id).on_restart <- Some f

let is_up t id = t.nodes.(id).up

let messages_sent t = t.messages_sent

let fault_stats t =
  {
    dropped = t.n_dropped;
    duplicated = t.n_duplicated;
    delayed = t.n_delayed;
    crashes = t.n_crashes;
  }

let busy_time t id = t.busy_time.(id)

let max_server_utilization t ~duration =
  if duration <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc s -> Float.max acc (t.busy_time.(s) /. duration))
      0.0
      (Topology.servers t.net_topo)
