(* The sweep driver: expand a scenario into its (protocol x knob-point
   x seed) cell list, run every cell on the Harness.Pool work-stealing
   pool, and collect per-cell stats plus the streaming checker's
   verdict.

   Determinism contract: each cell job is self-contained — it builds
   its own workload and simulation world, capturing only immutable
   data (the point record, the protocol module, a precomputed Zipf
   table). Pool.map merges slots in submission order, so the cell list
   is byte-for-byte identical for any --jobs (pinned by test + CI). *)

module Runner = Harness.Runner

type cell = {
  protocol : string;
  coords : (string * string) list;  (* (axis name, value label), axis order *)
  point : Knob.point;
  seed : int;
}

type cell_result = {
  cell : cell;
  throughput : float;
  p50 : float;            (* seconds *)
  p99 : float;
  abort_rate : float;     (* in-window aborted / decided attempts *)
  committed : int;
  gave_up : int;
  check : string;         (* runner verdict: "ok (...)", "VIOLATION: ...", "skipped" *)
  ok : bool;              (* false iff the checker reported a violation *)
}

type sweep = {
  scenario : string;
  quick : bool;
  checked : bool;
  axes : (string * string list) list;  (* axis name -> value labels, axis order *)
  protocols : string list;
  seeds : int list;
  points : (string * string) list list;  (* grid coordinates, row-major *)
  cells : cell_result list;  (* protocol-major, then point, then seed *)
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

(* Simulated-time envelope per cell. The full tier matches the quick
   figure tier's 1 s window; --quick shrinks the window only — offered
   load is untouched, because backing off load would pull every cell
   below saturation and collapse the very ranking the atlas maps. *)
let durations ~quick = if quick then (0.25, 0.1, 0.2) else (1.0, 0.3, 0.4)

let cfg_of ~quick ~check (p : Knob.point) ~seed =
  let duration, warmup, drain = durations ~quick in
  {
    Runner.default with
    Runner.seed;
    n_servers = p.Knob.n_servers;
    n_clients = p.Knob.n_clients;
    offered_load = p.Knob.load;
    duration;
    warmup;
    drain;
    latency = Knob.latency_spec p.Knob.latency;
    max_clock_offset = p.Knob.clock_skew;
    check = (if check then Runner.Streaming else Runner.No_check);
  }

let run_cell ~quick ~check ?zipf (c : cell) (protocol : Harness.Protocol.t) =
  let w = Knob.workload_of ?zipf c.point in
  let cfg = cfg_of ~quick ~check c.point ~seed:c.seed in
  let r = Runner.run ~label:c.protocol protocol w cfg in
  let aborted = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Runner.aborts in
  let abort_rate =
    if aborted + r.Runner.committed = 0 then 0.0
    else float_of_int aborted /. float_of_int (aborted + r.Runner.committed)
  in
  {
    cell = c;
    throughput = r.Runner.throughput;
    p50 = r.Runner.p50;
    p99 = r.Runner.p99;
    abort_rate;
    committed = r.Runner.committed;
    gave_up = r.Runner.gave_up;
    check = r.Runner.check_result;
    ok = not (Runner.violated r);
  }

(* --- the sweep --------------------------------------------------------- *)

let run ?(jobs = 1) ?(quick = false) ?(check = true) ?seeds (s : Scenario.t) :
    sweep =
  let seeds = match seeds with Some l -> l | None -> s.Scenario.seeds in
  let points = Knob.expand s.Scenario.base s.Scenario.axes in
  let protos =
    List.map
      (fun name ->
        match Protocols.find name with
        | Some p -> (name, p)
        | None -> invalid_arg ("atlas: unknown protocol " ^ name))
      s.Scenario.protocols
  in
  (* resolve every shared Zipf table up front, on the submitting
     domain, so the fan-out below captures only immutable tables *)
  let memo = Zipf_memo.create () in
  List.iter
    (fun ((_ : (string * string) list), p) ->
      match Knob.zipf_key p with
      | Some (n, theta) -> ignore (Zipf_memo.get memo ~n ~theta)
      | None -> ())
    points;
  let jobs_list =
    List.concat_map
      (fun (pname, proto) ->
        List.concat_map
          (fun (coords, point) ->
            let zipf =
              match Knob.zipf_key point with
              | Some (n, theta) -> Some (Zipf_memo.get memo ~n ~theta)
              | None -> None
            in
            List.map
              (fun seed ->
                let c = { protocol = pname; coords; point; seed } in
                fun () -> run_cell ~quick ~check ?zipf c proto)
              seeds)
          points)
      protos
  in
  let cells = Harness.Pool.map ~jobs (fun job -> job ()) jobs_list in
  {
    scenario = s.Scenario.name;
    quick;
    checked = check;
    axes =
      List.map
        (fun a -> (Knob.axis_name a, Knob.axis_labels a))
        s.Scenario.axes;
    protocols = List.map fst protos;
    seeds;
    points = List.map fst points;
    cells;
  }
