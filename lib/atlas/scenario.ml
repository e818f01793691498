(* Named scenario presets: a scenario is pure data — base point, axes,
   roster, seeds, default check level — so a sweep is reproducible
   from its name and scale (--quick or full) alone. The paper's figures
   are scenarios of this shape too (Preset). *)

module Runner = Harness.Runner

type entry = {
  label : string;
  protocol : Harness.Protocol.t;
  tune : Knob.point -> Knob.point;
  swept : bool;
}

type t = {
  name : string;
  description : string;
  quick : bool;
  check : Runner.check_level;
  base : Knob.point;
  axes : Knob.axis list;
  roster : entry list;
  seeds : int list;
}

let entry ?label ?protocol ?(tune = Fun.id) ?(swept = true) name =
  let protocol =
    match (protocol, Protocols.find name) with
    | Some p, _ | None, Some (_, p) -> p
    | None, None -> invalid_arg ("atlas: unknown protocol " ^ name)
  in
  { label = Option.value label ~default:name; protocol; tune; swept }

let roster names = List.map (fun n -> entry n) names

(* The atlas window: --quick shrinks the measurement window only.
   Offered load is untouched, because backing off load would pull every
   cell below saturation and collapse the very ranking the atlas
   maps. *)
let atlas ~quick ~name ~description ?(base = Knob.default_point) ~(axes : Knob.axis list)
    ~seeds protocols =
  let window =
    if quick then { Knob.duration = 0.25; warmup = 0.1; drain = 0.2; series = None }
    else base.Knob.window
  in
  let base = { base with Knob.window } in
  {
    name;
    description;
    quick;
    check = Runner.Streaming;
    base;
    axes;
    roster = roster protocols;
    seeds;
  }

(* The six strictly serializable protocols plus TAPIR-CC: the roster
   for presets where run time matters more than roster width. *)
let core_seven =
  [ "NCC"; "NCC-RW"; "dOCC"; "d2PL-NW"; "d2PL-WW"; "Janus-CC"; "TAPIR-CC" ]

(* CI's acceptance grid: 3 knobs x 2 values x 7 protocols on a small
   cluster — wide enough to exercise every reporter feature, cheap
   enough to sweep on every push. The key space is deliberately small
   so contention (aborts, retries) separates the protocols; a sweep
   below saturation with no conflicts would rank everyone equal. *)
let smoke ~quick =
  atlas ~quick ~name:"smoke"
    ~description:"acceptance grid: Zipf skew x write fraction x clock skew, 7 protocols"
    ~base:
      {
        Knob.default_point with
        n_keys = 1_000;
        n_servers = 4;
        n_clients = 12;
        load = 24_000.0;
      }
    ~axes:
      [
        Zipf_theta [ 0.6; 0.95 ];
        Write_fraction [ 0.1; 0.5 ];
        Clock_skew [ 0.0; 5e-3 ];
      ]
    ~seeds:[ 1 ] core_seven

(* The CCBench question: where do protocol rankings invert as skew and
   write fraction move? *)
let contention ~quick =
  atlas ~quick ~name:"contention"
    ~description:"Zipf skew x write fraction phase plane, all protocols"
    ~axes:
      [
        Zipf_theta [ 0.0; 0.5; 0.8; 0.99; 1.2 ];
        Write_fraction [ 0.02; 0.1; 0.3; 0.5 ];
      ]
    ~seeds:[ 1; 2 ]
    (List.filter (fun n -> not (Protocols.is_replicated n)) Protocols.names)

(* Where natural consistency erodes: clock skew x latency regime under
   contention, with the RTC/AAT ablations and the negative control in
   the roster so the checker column shows *which* cells break. *)
let skew ~quick =
  atlas ~quick ~name:"skew"
    ~description:
      "clock skew x latency regime under contention; includes NCC ablations \
       and the noRTC negative control"
    ~base:{ Knob.default_point with zipf_theta = 0.9; write_fraction = 0.3 }
    ~axes:
      [
        Clock_skew [ 0.0; 1e-3; 5e-3; 20e-3 ];
        Latency [ Lan; Datacenter; Wan ];
      ]
    ~seeds:[ 1; 2 ]
    [ "NCC"; "NCC-RW"; "NCC-noAAT"; "NCC-noRTC"; "dOCC"; "d2PL-WW"; "TAPIR-CC" ]

let payload ~quick =
  atlas ~quick ~name:"payload" ~description:"payload size x transaction size mix"
    ~axes:
      [
        Payload [ 64; 512; 4096 ];
        Txn_keys [ (1, 2); (2, 8); (8, 16) ];
      ]
    ~seeds:[ 1 ] core_seven

(* Cluster-scale phase plane: where does each protocol's ranking move
   as servers, open-loop client population and offered load grow
   together? Offered load is a separate axis (not tied to servers) so
   the diagram shows both the under- and over-subscribed regimes at
   every cluster size. Runs on the same stream-checked driver as every
   scenario; `ncc_sim scale` is the single-point companion for the
   10-100M-txn sizes this grid would be too wide for. *)
let scale ~quick =
  atlas ~quick ~name:"scale"
    ~description:"cluster size x open-loop clients x offered load, to 64 servers"
    ~axes:
      [
        Servers [ 4; 8; 16; 32; 64 ];
        Clients [ 24; 96; 384 ];
        Load [ 2_000.0; 6_000.0; 12_000.0; 24_000.0 ];
      ]
    ~seeds:[ 1 ] core_seven

let mixes ~quick =
  atlas ~quick ~name:"mixes"
    ~description:"workload generator x Zipf skew (micro/hotspot/YCSB/RMW chains)"
    ~axes:
      [
        Workload
          [
            Micro_mix;
            Hotspot { hot_keys = 16; hot_fraction = 0.6 };
            Ycsb Workload.Ycsb.A;
            Ycsb Workload.Ycsb.B;
            Ycsb Workload.Ycsb.F;
            Rmw_chain { chain_min = 2; chain_max = 6 };
          ];
        Zipf_theta [ 0.6; 0.99 ];
      ]
    ~seeds:[ 1 ] core_seven

let all = [ smoke; contention; skew; payload; scale; mixes ]
