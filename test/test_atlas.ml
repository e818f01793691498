(* The contention atlas (lib/atlas): knob-grid expansion, the sweep
   driver's determinism contract (--jobs N byte-identical to
   sequential), golden phase-diagram output over a tiny grid, the Zipf
   memo, and the planted NCC-noRTC negative control — a violating cell
   must surface as a per-cell verdict, never abort the sweep. *)

module Knob = Atlas.Knob
module Driver = Atlas.Driver
module Diagram = Atlas.Diagram
module Report = Atlas.Report

(* --- a tiny deterministic scenario ------------------------------------- *)

(* The quick scale's window, as every scenario preset has it. *)
let quick_window =
  match Atlas.Scenario.all with
  | smoke :: _ -> (smoke ~quick:true).Atlas.Scenario.base.Knob.window
  | [] -> assert false

(* 2 knobs x 3 protocols x 2 seeds on a 2-server LAN cluster: small
   enough for runtest, wide enough to exercise every reporter feature
   (matrices, frontiers, deltas). *)
let tiny : Atlas.Scenario.t =
  {
    Atlas.Scenario.name = "tiny";
    description = "test grid";
    quick = true;
    check = Harness.Runner.Streaming;
    base =
      {
        Knob.default_point with
        Knob.n_keys = 200;
        n_servers = 2;
        n_clients = 6;
        (* past the 2-server knee, so protocols separate and the golden
           exercises winners, deltas and frontiers, not just ties *)
        load = 12_000.0;
        latency = Knob.Lan;
        window = quick_window;
      };
    axes = [ Knob.Zipf_theta [ 0.5; 1.1 ]; Knob.Write_fraction [ 0.1; 0.5 ] ];
    (* Janus-CC overtakes NCC at high contention, so the grid has a
       real crossover frontier for the golden to pin *)
    roster = Atlas.Scenario.roster [ "NCC"; "dOCC"; "Janus-CC" ];
    seeds = [ 1; 2 ];
  }

(* One shared sweep for the golden tests; computed on first use. *)
let tiny_sweep = lazy (Driver.run ~jobs:1 tiny)

(* --- knob grid ---------------------------------------------------------- *)

let expand_row_major () =
  let pts =
    Knob.expand Knob.default_point
      [ Knob.Zipf_theta [ 0.5; 1.1 ]; Knob.Write_fraction [ 0.1; 0.5 ] ]
  in
  Alcotest.(check int) "2x2 grid" 4 (List.length pts);
  let coords = List.map fst pts in
  Alcotest.(check (list (list (pair string string))))
    "row-major, first axis slowest"
    [
      [ ("zipf_theta", "0.5"); ("write_fraction", "0.1") ];
      [ ("zipf_theta", "0.5"); ("write_fraction", "0.5") ];
      [ ("zipf_theta", "1.1"); ("write_fraction", "0.1") ];
      [ ("zipf_theta", "1.1"); ("write_fraction", "0.5") ];
    ]
    coords;
  (* the point record actually carries the coordinate's value *)
  List.iter
    (fun (coords, (p : Knob.point)) ->
      let expect_theta =
        match List.assoc_opt "zipf_theta" coords with
        | Some "0.5" -> 0.5
        | _ -> 1.1
      in
      Alcotest.(check (float 1e-9)) "theta applied" expect_theta p.Knob.zipf_theta)
    pts;
  (* no axes: the base point itself, with empty coordinates *)
  match Knob.expand Knob.default_point [] with
  | [ ([], p) ] ->
    Alcotest.(check int) "base point" Knob.default_point.Knob.n_keys p.Knob.n_keys
  | _ -> Alcotest.fail "empty axes should yield exactly the base point"

let zipf_memo_shares_tables () =
  let m = Driver.Zipf_memo.create () in
  let a = Driver.Zipf_memo.get m ~n:1000 ~theta:0.9 in
  let b = Driver.Zipf_memo.get m ~n:1000 ~theta:0.9 in
  let c = Driver.Zipf_memo.get m ~n:1000 ~theta:0.8 in
  Alcotest.(check bool) "same key is a hit" true (a == b);
  Alcotest.(check bool) "different theta is a miss" false (a == c);
  (* a memoized table draws identically to a fresh one *)
  let fresh = Sim.Rng.zipf_create ~n:1000 ~theta:0.9 in
  let draws z =
    let rng = Sim.Rng.create 7 in
    List.init 64 (fun _ -> Sim.Rng.zipf_draw rng z)
  in
  Alcotest.(check (list int)) "memo hit = fresh table" (draws fresh) (draws a)

(* --- golden phase diagram ---------------------------------------------- *)

let golden_json () =
  let s = Lazy.force tiny_sweep in
  Golden.check ~name:"atlas_tiny.json" (Report.json s (Diagram.reduce s))

let golden_text () =
  let s = Lazy.force tiny_sweep in
  Golden.check ~name:"atlas_tiny.txt" (Report.text s (Diagram.reduce s))

(* --- parallel determinism ---------------------------------------------- *)

(* The headline sweep contract: the full JSON document — cells, phase
   summaries, frontiers — is byte-identical between --jobs 2 and
   sequential. Randomize the seed so the property is not an artifact of
   one history. *)
let jobs_parity =
  QCheck.Test.make ~name:"atlas --jobs 2 is byte-identical to sequential"
    ~count:3
    QCheck.(int_range 1 1000)
    (fun seed ->
      let nano =
        {
          tiny with
          Atlas.Scenario.axes = [ Knob.Write_fraction [ 0.1; 0.5 ] ];
          roster = Atlas.Scenario.roster [ "NCC"; "dOCC" ];
          seeds = [ seed ];
        }
      in
      let doc jobs =
        let s = Driver.run ~jobs nano in
        Report.json s (Diagram.reduce s)
      in
      String.equal (doc 1) (doc 2))

(* --- planted negative control ------------------------------------------ *)

(* NCC-noRTC (response-timing check removed) must produce a checker
   violation under clock skew at datacenter latency — and the sweep
   must keep going: the violation is a per-cell verdict, the healthy
   NCC cells around it are unaffected, and the diagram counts it. *)
let planted_violation_is_a_cell () =
  let s : Atlas.Scenario.t =
    {
      tiny with
      Atlas.Scenario.name = "planted";
      description = "NCC-noRTC under skew";
      base =
        {
          Knob.default_point with
          Knob.zipf_theta = 0.9;
          write_fraction = 0.3;
          clock_skew = 5e-3;
          latency = Knob.Datacenter;
          window = quick_window;
        };
      axes = [];
      roster = Atlas.Scenario.roster [ "NCC"; "NCC-noRTC" ];
      seeds = [ 1 ];
    }
  in
  let sweep = Driver.run ~jobs:2 s in
  Alcotest.(check int) "both cells ran" 2 (List.length sweep.Driver.cells);
  let by_protocol name =
    List.filter
      (fun (c : Driver.cell_result) ->
        String.equal c.Driver.cell.Driver.protocol name)
      sweep.Driver.cells
  in
  List.iter
    (fun (c : Driver.cell_result) ->
      Alcotest.(check bool) "NCC cell is clean" true c.Driver.ok)
    (by_protocol "NCC");
  (match by_protocol "NCC-noRTC" with
   | [ c ] ->
     Alcotest.(check bool) "noRTC cell is flagged" false c.Driver.ok;
     let r = c.Driver.result in
     Alcotest.(check bool) "verdict is the checker message" true
       (String.length r.Harness.Runner.check_result >= 9
       && String.equal (String.sub r.Harness.Runner.check_result 0 9) "VIOLATION");
     Alcotest.(check bool) "flagged cell still reports stats" true
       (r.Harness.Runner.committed > 0)
   | _ -> Alcotest.fail "expected exactly one NCC-noRTC cell");
  let d = Diagram.reduce sweep in
  Alcotest.(check int) "diagram counts the violation" 1
    d.Diagram.total_violations

(* A roster names its protocols when the preset is built: an unknown
   name is refused there, before any sweep runs. *)
let unknown_protocol_rejected () =
  match Atlas.Scenario.roster [ "NCC"; "NoSuchProto" ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the protocol" "atlas: unknown protocol NoSuchProto" msg

(* --- preset lookups and coverage ---------------------------------------- *)

let scenario_lookup () =
  Alcotest.(check bool) "smoke exists" true (Option.is_some (Atlas.Preset.find "smoke"));
  Alcotest.(check bool) "lookup is case-insensitive" true
    (Option.is_some (Atlas.Preset.find "SMOKE"));
  Alcotest.(check bool) "figures are presets" true
    (Option.is_some (Atlas.Preset.find "fig6a"));
  Alcotest.(check bool) "unknown is None" true
    (Option.is_none (Atlas.Preset.find "no-such-scenario"));
  (* building a preset resolves its roster *)
  List.iter (fun (p : Atlas.Preset.t) -> ignore (p.Atlas.Preset.make ~quick:true)) Atlas.Preset.all

let core_seven = [ "NCC"; "NCC-RW"; "dOCC"; "d2PL-NW"; "d2PL-WW"; "Janus-CC"; "TAPIR-CC" ]

(* The six scenarios' rosters, axes (name and value labels) and seeds,
   as the scenario presets have always swept them. *)
let scenario_grids =
  [
    ( "smoke",
      core_seven,
      [
        ("zipf_theta", [ "0.6"; "0.95" ]);
        ("write_fraction", [ "0.1"; "0.5" ]);
        ("clock_skew_s", [ "0"; "0.005" ]);
      ],
      [ 1 ] );
    ( "contention",
      [
        "NCC"; "NCC-RW"; "NCC-noSR"; "NCC-noAAT"; "NCC-noRTC"; "dOCC"; "d2PL-NW";
        "d2PL-WW"; "Janus-CC"; "TAPIR-CC"; "MVTO";
      ],
      [
        ("zipf_theta", [ "0"; "0.5"; "0.8"; "0.99"; "1.2" ]);
        ("write_fraction", [ "0.02"; "0.1"; "0.3"; "0.5" ]);
      ],
      [ 1; 2 ] );
    ( "skew",
      [ "NCC"; "NCC-RW"; "NCC-noAAT"; "NCC-noRTC"; "dOCC"; "d2PL-WW"; "TAPIR-CC" ],
      [ ("clock_skew_s", [ "0"; "0.001"; "0.005"; "0.02" ]); ("latency", [ "lan"; "dc"; "wan" ]) ],
      [ 1; 2 ] );
    ( "payload",
      core_seven,
      [ ("payload_bytes", [ "64"; "512"; "4096" ]); ("txn_keys", [ "1-2"; "2-8"; "8-16" ]) ],
      [ 1 ] );
    ( "scale",
      core_seven,
      [
        ("servers", [ "4"; "8"; "16"; "32"; "64" ]);
        ("clients", [ "24"; "96"; "384" ]);
        ("load_tps", [ "2000"; "6000"; "12000"; "24000" ]);
      ],
      [ 1 ] );
    ( "mixes",
      core_seven,
      [
        ("workload", [ "micro"; "hot16@0.6"; "ycsb-a"; "ycsb-b"; "ycsb-f"; "rmw2-6" ]);
        ("zipf_theta", [ "0.6"; "0.99" ]);
      ],
      [ 1 ] );
  ]

(* Every preset, figure or scenario, expands at both scales without
   running: building it resolved every roster name, and every cell's
   runner config passes [Runner.validate]. The scenarios' rosters,
   axes and seeds are pinned, and their entries are the table's
   protocols. *)
let preset_coverage () =
  List.iter
    (fun (p : Atlas.Preset.t) ->
      List.iter
        (fun quick ->
          let s = p.Atlas.Preset.make ~quick in
          let at = Printf.sprintf "%s (quick=%b)" p.Atlas.Preset.name quick in
          Alcotest.(check string) (at ^ " name") p.Atlas.Preset.name s.Atlas.Scenario.name;
          Alcotest.(check bool) (at ^ " scale") quick s.Atlas.Scenario.quick;
          List.iter
            (fun (c : Driver.cell) ->
              Alcotest.(check (result unit string))
                (Printf.sprintf "%s %s cell config" at c.Driver.protocol)
                (Ok ())
                (Harness.Runner.validate
                   (Driver.cfg_of ~check:s.Atlas.Scenario.check c.Driver.point
                      ~seed:c.Driver.seed)))
            (Driver.expand s))
        [ true; false ])
    Atlas.Preset.all;
  Alcotest.(check (list string)) "scenario presets"
    (List.map (fun (n, _, _, _) -> n) scenario_grids)
    (List.map (fun (p : Atlas.Preset.t) -> p.Atlas.Preset.name) Atlas.Preset.scenarios);
  List.iter
    (fun (name, roster, axes, seeds) ->
      List.iter
        (fun make ->
          let s : Atlas.Scenario.t = make ~quick:true in
          if String.equal s.Atlas.Scenario.name name then begin
            let labels = List.map (fun e -> e.Atlas.Scenario.label) s.Atlas.Scenario.roster in
            Alcotest.(check (list string)) (name ^ " roster") roster labels;
            List.iter
              (fun (e : Atlas.Scenario.entry) ->
                match Atlas.Protocols.find e.Atlas.Scenario.label with
                | Some (_, p) ->
                  Alcotest.(check bool) (name ^ " entry " ^ e.Atlas.Scenario.label) true
                    (p == e.Atlas.Scenario.protocol)
                | None -> Alcotest.failf "%s: %s does not resolve" name e.Atlas.Scenario.label)
              s.Atlas.Scenario.roster;
            Alcotest.(check (list (pair string (list string)))) (name ^ " axes") axes
              (List.map (fun a -> (Knob.axis_name a, Knob.axis_labels a)) s.Atlas.Scenario.axes);
            Alcotest.(check (list int)) (name ^ " seeds") seeds s.Atlas.Scenario.seeds
          end)
        Atlas.Scenario.all)
    scenario_grids

let workload_registry_aliases () =
  let find n = Workload.Registry.find ~n_servers:4 n in
  Alcotest.(check bool) "tao -> facebook-tao" true (Option.is_some (find "tao"));
  Alcotest.(check bool) "TAO (case) resolves" true (Option.is_some (find "TAO"));
  Alcotest.(check bool) "ycsb -> ycsb-a" true (Option.is_some (find "ycsb"));
  Alcotest.(check bool) "unknown is None" true (Option.is_none (find "nope"));
  Alcotest.(check bool) "canonical list has the new generators" true
    (List.for_all
       (fun n -> List.mem n (Workload.Registry.names ~n_servers:4))
       [ "hotspot"; "ycsb-a"; "ycsb-b"; "ycsb-c"; "ycsb-f"; "rmw-chain" ])

let suite =
  [
    Alcotest.test_case "knob grid is row-major and applies values" `Quick
      expand_row_major;
    Alcotest.test_case "zipf memo shares identical tables" `Quick
      zipf_memo_shares_tables;
    Alcotest.test_case "golden phase-diagram JSON" `Slow golden_json;
    Alcotest.test_case "golden phase-diagram text" `Slow golden_text;
    QCheck_alcotest.to_alcotest jobs_parity;
    Alcotest.test_case "planted NCC-noRTC violation is a cell, not an abort"
      `Slow planted_violation_is_a_cell;
    Alcotest.test_case "unknown protocol is rejected up front" `Quick
      unknown_protocol_rejected;
    Alcotest.test_case "scenario lookup + preset rosters resolve" `Quick
      scenario_lookup;
    Alcotest.test_case "workload registry aliases" `Quick
      workload_registry_aliases;
    Alcotest.test_case "every preset expands to valid configs" `Quick preset_coverage;
  ]
