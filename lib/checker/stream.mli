(** Streaming serializability checker: an online incremental
    real-time serialization graph with windowed garbage collection.

    Consumes a run's committed transactions as it produces them (via
    {!observe_version} and {!observe_commit}, both in nondecreasing
    simulation time). In its strict mode it retires transactions once
    they can no longer participate in a new violation, keeping memory
    bounded by the concurrency window rather than the history length.
    Any later edge into a retired transaction closes a two-cycle with
    that transaction's guaranteed real-time edge and is reported
    immediately. See docs/checker.md for the design and the GC window
    invariant. *)

type t

(** High-water marks and counters for the memory-bound tests and the
    observability plane. [commits] counts every commit record observed,
    including any after a violation was found; [live_high_water] is the
    peak size of the live (un-retired) transaction set; [stale_residue]
    counts pruned versions, whose vid words keep the stale-read
    evidence. *)
type stats = {
  commits : int;
  epochs : int;
  retired : int;
  live_high_water : int;
  pending_high_water : int;
  stale_residue : int;
}

(** [create ()] builds a checker. [strict] (default true) checks strict
    serializability with windowed retirement. With [~strict:false] it
    checks plain serializability: without real-time edges nothing can
    safely retire, so the full history is retained and {!finalize}
    delegates to [Rsg.check ~strict:false] verbatim — the verdict is
    field-for-field the post-hoc one. [epoch] (default 1024) is the
    number of commits between cycle checks / retirement sweeps.
    [watermark] must return a lower bound on the start time of every
    transaction whose commit has not yet been observed; the default
    (-inf) disables retirement without disabling epoch checks.
    [on_epoch] is called after each clean epoch check with the live
    and cumulative retired counts (observability hook). *)
val create :
  ?strict:bool ->
  ?epoch:int ->
  ?watermark:(unit -> float) ->
  ?on_epoch:(live:int -> retired:int -> unit) ->
  unit ->
  t

(** A server committed [vid] for [key], whose nearest committed
    predecessor / successor at commit time were [prev] / [next]
    ([Kernel.Types.no_vid] for none).
    [writer] only distinguishes the key's initial version (0) from
    real writes (any nonzero value — servers announce under wire ids,
    so the writing transaction's identity is established later, by
    the commit record that lists [vid] among its writes).
    Re-announcements of a known [vid] (duplicated decide messages)
    are ignored. *)
val observe_version :
  t ->
  key:Kernel.Types.key ->
  vid:int ->
  writer:int ->
  prev:int ->
  next:int ->
  unit

(** A client observed transaction [txn] commit, reading and writing
    the given versions — the record {!Rsg.record_commit} takes, with
    the reads as the outcome lists them, (key, vid, value); the value
    is ignored. *)
val observe_commit :
  t ->
  txn:int ->
  start:float ->
  finish:float ->
  reads:(Kernel.Types.key * int * Kernel.Types.value) list ->
  writes:(Kernel.Types.key * int) list ->
  unit

(** Run the end-of-history checks (dirty reads, then a final cycle
    check over the live set) and return the verdict. Idempotent. *)
val finalize : t -> Verdict.t

val stats : t -> stats
