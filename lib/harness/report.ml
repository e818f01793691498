(* JSON reporting over Runner results and the metrics registry: the
   documents behind `ncc_sim --profile FILE`, the bench BENCH_*.json
   files and the CI artifacts. All serialization goes through
   Obs.Jsonw, so output is deterministic byte-for-byte for a given
   seed (golden-tested). *)

open Obs

let result_json (r : Runner.result) =
  Jsonw.Obj
    [
      ("protocol", Jsonw.Str r.Runner.protocol);
      ("workload", Jsonw.Str r.Runner.workload);
      ("offered", Jsonw.Float r.Runner.offered);
      ("committed", Jsonw.Int r.Runner.committed);
      ("gave_up", Jsonw.Int r.Runner.gave_up);
      ("attempts", Jsonw.Int r.Runner.attempts);
      ("aborts",
       Jsonw.Obj
         (List.map (fun (k, n) -> (k, Jsonw.Int n)) r.Runner.aborts));
      ("shed_arrivals", Jsonw.Int r.Runner.dropped);
      ("throughput_tps", Jsonw.Float r.Runner.throughput);
      ("mean_latency_s", Jsonw.Float r.Runner.mean_latency);
      ("p50_s", Jsonw.Float r.Runner.p50);
      ("p90_s", Jsonw.Float r.Runner.p90);
      ("p99_s", Jsonw.Float r.Runner.p99);
      ("p999_s", Jsonw.Float r.Runner.p999);
      ("messages", Jsonw.Int r.Runner.messages);
      ("msgs_per_commit", Jsonw.Float r.Runner.msgs_per_commit);
      ("max_utilization", Jsonw.Float r.Runner.max_utilization);
      ("counters",
       Jsonw.Obj
         (List.map (fun (k, v) -> (k, Jsonw.Float v)) r.Runner.counters));
      ("check", Jsonw.Str r.Runner.check_result);
    ]

(* The `ncc_sim --profile` document: the run summary plus every cell of
   the metrics registry (per-node counters, gauges, histograms). *)
let profile_json (r : Runner.result) (mx : Metrics.t) =
  Jsonw.to_string
    (Jsonw.Obj
       [ ("result", result_json r); ("metrics", Metrics.to_json mx) ])

(* One bench row: experiment name + the run it measured. *)
let bench_row ~experiment (r : Runner.result) =
  Jsonw.Obj [ ("experiment", Jsonw.Str experiment); ("result", result_json r) ]

(* Microbench rows carry host-measured timings: unlike simulation rows
   they are not deterministic across runs. *)
let micro_row ~name ~ns_per_run =
  Jsonw.Obj
    [ ("experiment", Jsonw.Str ("micro:" ^ name)); ("ns_per_run", Jsonw.Float ns_per_run) ]

(* GC telemetry for a simulation run: allocation volume and collector
   pressure. Host-dependent like micro rows (allocation counts shift
   with the compiler and runtime), so parity checks must skip gc rows
   the same way they skip micro rows. *)
let gc_row ~experiment ~minor_words ~major_collections ~top_heap_words =
  Jsonw.Obj
    [
      ("experiment", Jsonw.Str ("gc:" ^ experiment));
      ("minor_words", Jsonw.Float minor_words);
      ("major_collections", Jsonw.Int major_collections);
      ("top_heap_words", Jsonw.Int top_heap_words);
    ]

let bench_doc ~suite rows =
  Jsonw.to_string
    (Jsonw.Obj [ ("suite", Jsonw.Str suite); ("rows", Jsonw.List rows) ])
