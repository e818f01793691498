(** The simulator's one tracer: a global, off-by-default stream of
    typed events with three readers, each switched on by itself — the
    rolling digest and the ring see the message plane, the capture sees
    every kind. Call sites guard with [active ()]; a disabled tracer
    costs one branch. Events hold no strings: text is rendered only by
    {!message}, {!dump} and [Obs.Export]. The state is domain-local. *)

(** What happened. The first nine kinds are the message plane; the
    rest are seen by the capture only, which keeps one span per event
    (none for [Suppressed] to [Restart]) and the [Track] names. Fields
    a kind does not name are 0. [flight] is the message's id. *)
type kind =
  | Send  (** [src] to [dst]; [x] = delay until arrival (s), [id] = flight *)
  | Handle
      (** [dst] served a message from [src] from [start] for [dur];
          [code] = phase, -1 if none *)
  | Suppressed  (** sender [src] is down *)
  | Partitioned  (** the [src]-[dst] link is cut *)
  | Dropped
  | Duplicated  (** a second copy; [x] = its delay (s), [id] = flight *)
  | Lost_down  (** receiver [dst] is down *)
  | Crash  (** node [src] *)
  | Restart  (** node [src] *)
  | Arrive  (** flight [id] from [src] reaches [dst] *)
  | Queued  (** [dst] starts serving a message from [src] queued since [start] *)
  | Txn_begin  (** client [src] admits txn [id] *)
  | Attempt_begin  (** client [src] submits txn [id] *)
  | Attempt_end  (** the attempt commits ([code] -1) or aborts ([code] = reason code) *)
  | Txn_end  (** txn [id] commits after [code] attempts, or gives up ([code] -1) *)
  | Gave_up  (** txn [id] of client [src] hits the retry cap *)
  | Backoff  (** txn [id] waits [dur] from [start] before retrying *)
  | Shed  (** an arrival at client [src] is shed; [code] = 1 for a hot key *)
  | Epoch  (** checker epoch on node [src]: [id] live, [code] retired *)
  | Finalize
      (** checker end on node [src]: [id] commits, [dst] live high-water,
          [code] retired, [x] = 1.0 on a violation *)
  | Track  (** names node [src]'s track; [code] = role *)

type event = {
  ev_time : float;
  ev_kind : kind;
  ev_src : int;
  ev_dst : int;
  ev_x : float;
  ev_start : float;
  ev_dur : float;
  ev_id : int;
  ev_code : int;
}

(** Track roles, the [code] of a [Track] event. *)
val server_track : int
val replica_track : int
val client_track : int
val checker_track : int

(** Start the ring: the last [capacity] (default 4096) message-plane
    events. *)
val enable : ?capacity:int -> unit -> unit

val disable : unit -> unit

(** Fold every message-plane event into a rolling digest: an MD5 chain
    over fixed 25-byte binary records (kind, time bits, src, dst, x
    bits). Equal digests across two runs mean identical message traces
    — the determinism oracle of chaos-seed replay. [enable_digest] never
    clears the digest (a mid-run enable must not wipe history another
    layer is accumulating); [reset_digest] starts a fresh stream. *)
val enable_digest : unit -> unit

val disable_digest : unit -> unit
val reset_digest : unit -> unit

(** Hex digest of everything folded since the last [reset_digest].
    Reading it does not disturb the stream. *)
val digest : unit -> string

(** A capture's events, oldest first, and how many spans came past the
    limit. *)
type capture = { events : event array; dropped : int }

(** Start a fresh capture of the first [limit] spans (default 2M);
    later ones are counted, not kept. *)
val start_capture : ?limit:int -> unit -> unit

(** Stop capturing and hand over what was kept. *)
val stop_capture : unit -> capture

(** True when any reader is on. *)
val active : unit -> bool

(** Record one event. Allocates nothing beyond its boxed float
    arguments. *)
val emit :
  time:float -> kind -> src:int -> dst:int -> x:float -> start:float ->
  dur:float -> id:int -> code:int -> unit

(** [emit] for events that carry only [x]. *)
val ev : time:float -> kind -> src:int -> dst:int -> x:float -> unit

(** Ring events emitted since [enable] (including overwritten ones). *)
val emitted : unit -> int

(** Ring events, oldest first. *)
val events : unit -> event list

(** A message-plane event's one-line text, as [dump] prints it. *)
val message : event -> string

(** Pretty-print the ring ([last] trims to the final k). *)
val dump : ?last:int -> Format.formatter -> unit
