(** Reproductions of the paper's evaluation (§5), one entry per
    table/figure, on the simulated testbed. *)

module Runner = Harness.Runner

(** Cluster/duration preset. [check] is the default history-check
    level for every run at this scale. *)
type scale = {
  n_servers : int;
  n_clients : int;
  duration : float;
  warmup : float;
  check : Runner.check_level;
}

(** The paper's 8 servers plus 24 clients; no checking (published
    curves time the protocol alone). *)
val full_scale : scale

(** 4 servers, shorter runs; every run stream-checked ([Streaming]). *)
val quick_scale : scale

val base_cfg : ?seed:int -> scale -> Runner.config

(** Every table and figure of the evaluation, in presentation order,
    as `bench/main.exe` and `ncc_sim fig` run it: each entry runs its
    experiment on [scale] ([jobs] > 1 fans cells over a {!Harness.Pool};
    output is byte-identical to [jobs = 1]), prints its table and returns
    its runs as BENCH_*.json rows. [quick] selects the loads tuned for
    {!quick_scale}'s smaller cluster. Fig 6a also reports the §5.3 NCC
    internal statistics; params prints the Fig 4/5 workload tables and
    returns no rows. *)
val figures :
  (string * (jobs:int -> quick:bool -> scale -> Obs.Jsonw.t list)) list
