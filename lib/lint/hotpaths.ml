(* The hot-path seed registry for the allocation plane (R16-R19).

   Each entry is a node-key suffix (whole-component match, like the
   other registries): "Sim.Heap.push" matches the binding the sim
   library's Heap module declares under dune's mangled unit name.
   These are the cluster-scale cost centres (docs/performance.md,
   "Allocation discipline: the lint plane") — the event queue and clock
   reads, per-message network dispatch, the store's version and
   chain lookup, the NCC server's row lookup, and the streaming
   checker's feed path. They are hot whether or not anyone remembers
   to annotate them; [@ncc.hot] attributes extend this set for
   call-site-specific additions.

   Keep the list small and load-bearing: every seed is a BFS root for
   R18's hotness propagation, so a careless entry drags its whole
   callee cone into the checked region. *)

let seeds =
  [
    (* Sim.Engine: the event loop and its queue — runs once per
       simulated event — and the clock reads that stay unboxed. *)
    "Sim.Engine.run";
    "Sim.Engine.schedule";
    "Sim.Engine.schedule_at";
    "Sim.Engine.schedule_cell";
    "Sim.Engine.stamp";
    "Sim.Engine.local_ns";
    (* Sim.Heap: the reference order the engine is tested against and
       the bench's baseline row; it allocates nothing per element. *)
    "Sim.Heap.push";
    "Sim.Heap.top_prio";
    "Sim.Heap.pop_min";
    (* Sim.Clock: per-read skewed-time arithmetic. *)
    "Sim.Clock.read";
    "Sim.Clock.read_ns";
    "Sim.Clock.read_ns_cell";
    (* Sim.Trace: one typed event per traced send/handle; with the
       chaos digest on it runs once per simulated message. *)
    "Sim.Trace.ev";
    (* Cluster.Net: the per-message dispatch path. *)
    "Cluster.Net.send";
    "Cluster.Net.send_clean";
    "Cluster.Net.send_faulty";
    "Cluster.Net.deliver";
    "Cluster.Net.deliver_slot";
    "Cluster.Net.service";
    "Cluster.Net.complete_fast";
    "Cluster.Net.finish_service";
    (* Mvstore.Store: version lookup, once per read/write; the NCC
       server reads and writes through chain handles, resolved by
       [chain] (which builds a key's chain on demand), and the keyed
       reads answer a key with no chain from its initial version in
       the flat table, [bare_initial] (which draws it on a fresh key). *)
    "Mvstore.Store.chain";
    "Mvstore.Store.bare_initial";
    "Mvstore.Store.read";
    "Mvstore.Store.write";
    "Mvstore.Store.most_recent";
    "Mvstore.Store.chain_head";
    "Mvstore.Store.chain_read";
    "Mvstore.Store.chain_write";
    "Mvstore.Store.most_recent_committed";
    "Mvstore.Store.version_at";
    (* Ncc.Server: a key's row, resolved once per executed operation
       and created on a fresh key. *)
    "Ncc.Server.row_of";
    (* Kernel.Wires: every server's record of its wires, read on each
       executed shot, Decide and recovery message. *)
    "Kernel.Wires.find";
    "Kernel.Wires.decided";
    "Kernel.Wires.committed";
    "Kernel.Wires.decide";
    (* Ncc.Client: the coordinator's per-transaction timestamp
       pre-assignment and its per-reply handler (Δ and t_ro tracking,
       then the shot and safeguard logic it drives). *)
    "Ncc.Client.pre_assign";
    "Ncc.Client.handle_exec_reply";
    (* Checker.Stream: the per-commit feed path. *)
    "Checker.Stream.observe_version";
    "Checker.Stream.observe_commit";
    (* Atlas.Diagram: the phase-diagram reduce loops — run once per
       (point x protocol) over every cell of a sweep, written as
       allocation-free tail recursions precisely so they can sit
       here. *)
    "Atlas.Diagram.sum_from";
    "Atlas.Diagram.mean";
    "Atlas.Diagram.winner_from";
    "Atlas.Diagram.winner_index";
  ]

(* Does a node key name a seeded hot entry? *)
let is_seed key = List.exists (fun s -> Paths.has_suffix ~suffix:s key) seeds
