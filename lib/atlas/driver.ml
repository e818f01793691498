(* The sweep driver, the one sweep engine: expand a scenario into its
   (roster entry x knob-point x seed) cell list, run every cell on the
   Harness.Pool work-stealing pool, and keep each cell's full runner
   result with the checker's verdict.

   Determinism contract: each cell job is self-contained — it builds
   its own workload and simulation world, capturing only immutable
   data (the point record, the protocol module, a precomputed Zipf
   table). Pool.map merges slots in submission order, so the cell list
   is byte-for-byte identical for any --jobs (pinned by test + CI). *)

module Runner = Harness.Runner

type cell = {
  entry : int;  (* index in the scenario's roster *)
  protocol : string;  (* the entry's label *)
  coords : (string * string) list;  (* (axis name, value label), axis order *)
  point : Knob.point;
  seed : int;
}

type cell_result = {
  cell : cell;
  result : Runner.result;
  abort_rate : float;     (* in-window aborted / decided attempts *)
  ok : bool;              (* false iff the checker reported a violation *)
}

type sweep = {
  scenario : string;
  description : string;
  quick : bool;
  check : Runner.check_level;
  axes : (string * string list) list;  (* axis name -> value labels, axis order *)
  protocols : string list;  (* roster labels *)
  seeds : int list;
  points : (string * string) list list;  (* grid coordinates, row-major *)
  cells : cell_result list;  (* roster-major, then point, then seed *)
}

(* --- Zipf memo -------------------------------------------------------- *)

(* Cells sharing (n_keys, theta) reuse one Zipf table: the zeta
   normalization in Sim.Rng.zipf_create is the per-call cost (a long
   partial sum), and a grid re-instantiates the same table once per
   (protocol x seed). Sim.Rng.zipf is immutable once built, so tables
   resolved *before* the fan-out are safely captured read-only by pool
   jobs — nothing mutable escapes into submitted closures. The memo
   lives inside one driver invocation; there is no module-global
   state. *)
module Zipf_memo = struct
  type t = (int * float * Sim.Rng.zipf) list ref

  let create () : t = ref []

  let get (m : t) ~n ~theta =
    let hit =
      List.find_opt (fun (n', t', _) -> n' = n && Float.equal t' theta) !m
    in
    match hit with
    | Some (_, _, z) -> z
    | None ->
      let z = Sim.Rng.zipf_create ~n ~theta in
      m := (n, theta, z) :: !m;
      z
end

(* --- per-cell run ------------------------------------------------------ *)

(* In-window abort fraction: aborted attempts over all decided attempts
   (the [attempts] counter also covers warmup and drain). *)
let abort_rate (r : Runner.result) =
  let aborted = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Runner.aborts in
  if aborted + r.Runner.committed = 0 then 0.0
  else float_of_int aborted /. float_of_int (aborted + r.Runner.committed)

let cfg_of ~check (p : Knob.point) ~seed =
  let { Knob.duration; warmup; drain; series } = p.Knob.window in
  {
    Runner.default with
    Runner.seed;
    n_servers = p.Knob.n_servers;
    n_clients = p.Knob.n_clients;
    replicas_per_server = p.Knob.replicas;
    offered_load = p.Knob.load;
    duration;
    warmup;
    drain;
    series_width = series;
    latency = Knob.latency_spec p.Knob.latency;
    max_clock_offset = p.Knob.clock_skew;
    check;
  }

let run_cell ~check ?zipf (c : cell) (protocol : Harness.Protocol.t) =
  let w = Knob.workload_of ?zipf c.point in
  let r = Runner.run ~label:c.protocol protocol w (cfg_of ~check c.point ~seed:c.seed) in
  { cell = c; result = r; abort_rate = abort_rate r; ok = not (Runner.violated r) }

(* --- the sweep --------------------------------------------------------- *)

let expand ?seeds (s : Scenario.t) =
  let seeds = Option.value seeds ~default:s.Scenario.seeds in
  let points = Knob.expand s.Scenario.base s.Scenario.axes in
  List.concat
    (List.mapi
       (fun entry (e : Scenario.entry) ->
         let at = if e.Scenario.swept then points else [ ([], s.Scenario.base) ] in
         List.concat_map
           (fun (coords, p) ->
             let point = e.Scenario.tune p in
             List.map
               (fun seed -> { entry; protocol = e.Scenario.label; coords; point; seed })
               seeds)
           at)
       s.Scenario.roster)

let run ?(jobs = 1) ?check ?seeds (s : Scenario.t) : sweep =
  let check = Option.value check ~default:s.Scenario.check in
  let seeds = Option.value seeds ~default:s.Scenario.seeds in
  (* resolve every shared Zipf table up front, on the submitting
     domain, so the fan-out below captures only immutable tables *)
  let memo = Zipf_memo.create () and roster = Array.of_list s.Scenario.roster in
  let job c =
    let zipf = Option.map (fun (n, theta) -> Zipf_memo.get memo ~n ~theta) (Knob.zipf_key c.point) in
    let proto = roster.(c.entry).Scenario.protocol in
    fun () -> run_cell ~check ?zipf c proto
  in
  let jobs_list = List.map job (expand ~seeds s) in
  {
    scenario = s.Scenario.name;
    description = s.Scenario.description;
    quick = s.Scenario.quick;
    check;
    axes =
      List.map
        (fun a -> (Knob.axis_name a, Knob.axis_labels a))
        s.Scenario.axes;
    protocols = List.map (fun (e : Scenario.entry) -> e.Scenario.label) s.Scenario.roster;
    seeds;
    points = List.map fst (Knob.expand s.Scenario.base s.Scenario.axes);
    cells = Harness.Pool.map ~jobs (fun job -> job ()) jobs_list;
  }

(* Each roster entry's label and its cells, in roster order. *)
let entries (s : sweep) =
  List.mapi
    (fun i label -> (label, List.filter (fun c -> c.cell.entry = i) s.cells))
    s.protocols
