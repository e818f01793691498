(** Observability plane: span naming and export over a
    {!Sim.Trace.capture}, per-node metrics, and deterministic exporters
    (Chrome trace_event / JSON / text timeline). See
    docs/observability.md. *)

(** Transaction-lifecycle phase vocabulary (Protocol.S.msg_phase). *)
module Phase : module type of Phase

(** Named counters / gauges / histograms scoped per node. *)
module Metrics : module type of Metrics

(** Chrome trace_event JSON, text timeline, structural validation. *)
module Export : module type of Export

(** Minimal deterministic JSON writer. *)
module Jsonw : module type of Jsonw
