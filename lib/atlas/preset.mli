(** The one preset table behind [ncc_sim atlas] and [bench/main.exe]:
    every table and figure of the paper's evaluation (§5), then the
    atlas scenarios ({!Scenario}). A preset builds its scenario at the
    quick or the full scale. Fig 6a also reports the §5.3 NCC internal
    statistics; params prints the Fig 4/5 workload tables and returns
    no rows. *)

(** The paper's testbed with an empty roster: 8 servers, 24 clients
    and a 2 s unchecked window at the full scale; 4 servers, 12
    clients and a 1 s stream-checked window at the quick scale. *)
val testbed : quick:bool -> Scenario.t

(** A scenario reduces to a phase diagram (text plus JSON document); a
    figure's reporter prints the figure's table, writes its CSV when
    NCC_CSV_DIR is set and returns its runs as BENCH rows. *)
type report = Phase_diagram | Figure of (Driver.sweep -> Obs.Jsonw.t list)

type t = { name : string; make : quick:bool -> Scenario.t; report : report }

(** The figures, in the paper's presentation order. *)
val figures : t list

(** The atlas scenarios. *)
val scenarios : t list

val all : t list
val names : string list

(** Case-insensitive lookup by name. *)
val find : string -> t option
