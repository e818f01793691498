(** Exporters over a {!Sim.Trace.capture}: Chrome trace_event JSON
    (loadable in Perfetto), a compact text timeline, and a structural
    validator. The capture's flat events get their span names here.
    Output is deterministic (stable sort by timestamp, fixed float
    formatting) — golden-file tests compare the bytes. *)

(** The whole trace as a Chrome trace_event document: one process,
    one thread per node (named from the capture's tracks), "X" for
    complete spans, "b"/"e" for async spans, "i" for instants;
    timestamps in microseconds of simulated time. *)
val chrome_trace_string : Sim.Trace.capture -> string

(** Human-readable timeline, one span event per line ([last] trims to
    the final k). *)
val timeline : ?last:int -> Sim.Trace.capture -> Format.formatter -> unit

type summary = {
  v_events : int;       (** total span events *)
  v_complete : int;     (** complete spans *)
  v_async_pairs : int;  (** matched async begin/end pairs *)
  v_open : int;         (** async spans still open at the end *)
}

(** Check span invariants: finite nonnegative times, nonnegative
    durations, every async end matched to an earlier begin of the same
    (cat, id). Open spans at the end are an error unless [allow_open]
    (a trace truncated at the horizon legitimately leaves in-flight
    spans open). *)
val validate : ?allow_open:bool -> Sim.Trace.capture -> (summary, string) result
