(** Named scenario presets. A scenario is pure data — base point, axes,
    roster, seeds and default check level — at one scale, so any sweep
    is reproducible from its name plus the quick flag. The paper's
    figures are scenarios too ({!Preset}). *)

(** One roster entry: the display [label] of its cells (the runner's
    protocol name, the BENCH row name), the protocol, and [tune], the
    entry's own override of each cell's point, applied after the axes.
    An entry that is not [swept] runs once, at the tuned base point,
    instead of across the axes. *)
type entry = {
  label : string;
  protocol : Harness.Protocol.t;
  tune : Knob.point -> Knob.point;
  swept : bool;
}

type t = {
  name : string;
  description : string;
  quick : bool;  (** the quick (shorter, smaller) scale *)
  check : Harness.Runner.check_level;  (** the default history check *)
  base : Knob.point;
  axes : Knob.axis list;
  roster : entry list;
  seeds : int list;
}

(** [entry name]: [protocol] defaults to {!Protocols.find}[ name],
    [label] to [name], [tune] to the identity and [swept] to true.
    @raise Invalid_argument on an unknown name without [protocol]. *)
val entry :
  ?label:string ->
  ?protocol:Harness.Protocol.t ->
  ?tune:(Knob.point -> Knob.point) ->
  ?swept:bool ->
  string ->
  entry

(** One default entry per name. @raise Invalid_argument as {!entry}. *)
val roster : string list -> entry list

(** The contention-atlas grids: smoke (CI's acceptance grid), contention,
    skew, payload, scale and mixes (docs/atlas.md). *)
val all : (quick:bool -> t) list
