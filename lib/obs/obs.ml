(* Public face of the observability plane (docs/observability.md):
   the phase vocabulary of handler spans, a per-run metrics registry,
   and deterministic exporters (Chrome trace_event, metrics JSON, text
   timeline) over a Sim.Trace capture. Everything here is driven by
   caller-supplied simulated time, so observing cannot perturb a run
   and the determinism rules (R1/R2/R5/R9) hold with no waivers. *)

module Phase = Phase
module Metrics = Metrics
module Export = Export
module Jsonw = Jsonw
