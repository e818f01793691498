(* One-way network delay models. Delays are sampled per message, so
   links are not FIFO (a later message can overtake an earlier one) —
   none of the protocols here assume FIFO channels.

   The datacenter model the evaluation uses: a per-(src,dst) constant
   base propagation delay plus exponential jitter. Asymmetric base
   delays across client-server pairs are what make asynchrony-aware
   timestamps (§4.3) matter: close clients would otherwise always win
   the timestamp race against far ones. *)

(* [base src dst a i] writes the pair's base delay into [a.(i)]: every
   float of a per-message sample lands in a cell, so none is boxed. *)
type t = {
  base : Kernel.Types.node_id -> Kernel.Types.node_id -> float array -> int -> unit;
  jitter_mean : float;
}

let sample_into rng t ~src ~dst a i =
  if t.jitter_mean > 0.0 then Sim.Rng.exponential_into rng ~mean:t.jitter_mean a i
  else a.(i) <- 0.0;
  let j = a.(i) in
  t.base src dst a i;
  a.(i) <- a.(i) +. j

let sample rng t ~src ~dst =
  let a = [| 0.0 |] in
  sample_into rng t ~src ~dst a 0;
  a.(0)

(* Every pair has the same base one-way delay. *)
let uniform ~one_way ~jitter_mean = { base = (fun _ _ a i -> a.(i) <- one_way); jitter_mean }

(* Two latency classes: pairs selected by [remote] see the wide-area
   delay, everything else the local one. Used for geo-replication
   (replicas in another datacenter). *)
let classed ~local ~wide ~remote ~jitter_mean =
  { base = (fun src dst a i -> a.(i) <- (if remote src dst then wide else local)); jitter_mean }

(* Per-pair base delays drawn once, uniform in [min_one_way,
   max_one_way], symmetric (delay a->b = delay b->a), in the order of
   pairs (a, b), a < b. Only non-client nodes keep a row: a client's
   delay to a node is read from that node's row, and no message goes
   from client to client. The draws stop once every remaining pair
   joins two clients, so a 10,000-client topology costs a few rows, not
   a dense table. *)
let asymmetric rng topo ~min_one_way ~max_one_way ~jitter_mean =
  let n = Topology.n_nodes topo in
  let kept a = not (Topology.is_client topo a) in
  let rows = Array.init n (fun a -> if kept a then Array.make n 0.0 else [||]) in
  let last = ref (-1) in
  for a = 0 to n - 1 do
    if kept a then last := a
  done;
  for a = 0 to !last do
    for b = a + 1 to n - 1 do
      let d = min_one_way +. Sim.Rng.float rng (max_one_way -. min_one_way) in
      if kept a then rows.(a).(b) <- d;
      if kept b then rows.(b).(a) <- d
    done
  done;
  {
    base =
      (fun src dst a i ->
        if Kernel.Types.node_eq src dst then a.(i) <- 0.0
        else if kept src then a.(i) <- rows.(src).(dst)
        else if kept dst then a.(i) <- rows.(dst).(src)
        else invalid_arg "Latency.asymmetric: no client-to-client delay");
    jitter_mean;
  }
