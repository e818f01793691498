(** Deterministic JSON reporting over {!Runner.result} and the metrics
    registry: `ncc_sim --profile FILE`, the bench BENCH_*.json files
    and the CI artifacts all go through here. *)

(** A run summary as a JSON value. *)
val result_json : Runner.result -> Obs.Jsonw.t

(** The `ncc_sim --profile` document: run summary plus every cell of the
    metrics registry. *)
val profile_json : Runner.result -> Obs.Metrics.t -> string

(** One bench row ([experiment] names the configuration measured). *)
val bench_row : experiment:string -> Runner.result -> Obs.Jsonw.t

(** One microbenchmark row (host nanoseconds per run, so unlike
    simulation rows it varies between hosts and runs; keep micro out
    of any byte-diff parity check). *)
val micro_row : name:string -> ns_per_run:float -> Obs.Jsonw.t

(** One GC-telemetry row for a simulation run (from the runner's
    [gc.minor_words] / [gc.major_collections] / [gc.top_heap_words]
    gauges). Host-dependent like micro rows — keep gc rows out of any
    byte-diff parity check. *)
val gc_row :
  experiment:string ->
  minor_words:float ->
  major_collections:int ->
  top_heap_words:int ->
  Obs.Jsonw.t

(** A whole BENCH_*.json document. *)
val bench_doc : suite:string -> Obs.Jsonw.t list -> string
