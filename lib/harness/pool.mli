(** Work-stealing domain pool for independent simulation jobs.

    Jobs must be self-contained closures: they build their own
    simulation world (engine, rng, net, stores) and touch no shared
    mutable state — lint rule R12 audits submitted closures for
    escaping mutable state statically, and per-run ambient counters
    (txn ids, version ids, the tracer) are domain-local. Under that
    contract, results are byte-identical to sequential execution for
    any [jobs]: slots are keyed by submission index and merged in
    canonical order after all workers join.

    See docs/performance.md for the full determinism argument. *)

(** Domains the hardware can usefully run ([--jobs 0] resolves to
    this at the CLIs). *)
val cpu_count : unit -> int

(** [submit ~jobs tasks] runs every thunk exactly once — across
    [min jobs (length tasks)] domains when [jobs > 1], else
    sequentially on the calling domain — and returns per-job results
    in submission order. A raising job yields [Error] in its own slot
    and never disturbs its siblings. *)
val submit : jobs:int -> (unit -> 'a) list -> ('a, exn) result list

(** [map ~jobs f xs]: parallel [List.map] over [submit]. If any job
    raised, re-raises the submission-order-first exception after the
    whole batch has completed. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
