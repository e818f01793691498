(* The typed knob space of the contention atlas.

   A [point] fixes every parameter a cell needs: which workload
   generator runs, its contention knobs (key-space size, Zipf skew,
   write fraction, payload, txn size), and the environment (clock skew,
   latency regime, cluster size, offered load). An [axis] names one
   knob and the values to sweep; [expand] turns a base point plus a
   list of axes into the row-major grid of (coordinates, point) cells —
   purely data, so the same grid is reproducible from the scenario
   alone. *)

type latency_regime = Lan | Datacenter | Wan | Spec of Harness.Runner.latency_spec

type workload_kind =
  | Micro_mix
      (* the Micro substrate: write_fraction selects RW transactions *)
  | Hotspot of { hot_keys : int; hot_fraction : float }
  | Ycsb of Workload.Ycsb.mix
  | Rmw_chain of { chain_min : int; chain_max : int }
  | Google_f1
  | Google_wf  (* Google-F1 at the point's write_fraction *)
  | Facebook_tao
  | Tpcc  (* warehouses spread over the point's n_servers *)
  | Micro of Workload.Micro.params  (* exact parameters; the point's knobs unused *)

(* The measurement window, simulated seconds; [series] is the commit
   rate series' bucket width. *)
type window = { duration : float; warmup : float; drain : float; series : float option }

type point = {
  workload : workload_kind;
  n_keys : int;
  zipf_theta : float;
  write_fraction : float;
  payload_bytes : int;   (* mean value size; stddev tracks at mean/4 *)
  txn_keys_min : int;    (* keys (or ops) per transaction *)
  txn_keys_max : int;
  clock_skew : float;    (* max per-node clock offset, seconds *)
  latency : latency_regime;
  n_servers : int;
  n_clients : int;
  replicas : int;        (* replica nodes per server *)
  load : float;          (* offered transactions/second, whole system *)
  window : window;
}

(* The paper's testbed shape at moderate contention. *)
let default_point =
  {
    workload = Micro_mix;
    n_keys = 100_000;
    zipf_theta = 0.8;
    write_fraction = 0.1;
    payload_bytes = 256;
    txn_keys_min = 1;
    txn_keys_max = 4;
    clock_skew = 2e-3;
    latency = Datacenter;
    n_servers = 8;
    n_clients = 24;
    replicas = 0;
    load = 6_000.0;
    window = { duration = 1.0; warmup = 0.3; drain = 0.4; series = None };
  }

type axis =
  | Workload of workload_kind list
  | Zipf_theta of float list
  | Write_fraction of float list
  | Payload of int list
  | Txn_keys of (int * int) list
  | Clock_skew of float list
  | Latency of latency_regime list
  | Servers of int list
  | Clients of int list
  | Load of float list

(* One fixed float format for value labels, so grids and goldens are
   deterministic. *)
let fstr v = Printf.sprintf "%g" v

let latency_label = function
  | Lan -> "lan"
  | Datacenter -> "dc"
  | Wan -> "wan"
  | Spec _ -> "spec"

let workload_label = function
  | Micro_mix -> "micro"
  | Hotspot h -> Printf.sprintf "hot%d@%s" h.hot_keys (fstr h.hot_fraction)
  | Ycsb m -> Workload.Ycsb.mix_name m
  | Rmw_chain c -> Printf.sprintf "rmw%d-%d" c.chain_min c.chain_max
  | Google_f1 -> "google-f1"
  | Google_wf -> "google-wf"
  | Facebook_tao -> "facebook-tao"
  | Tpcc -> "tpcc"
  | Micro m -> m.Workload.Micro.label

let axis_name = function
  | Workload _ -> "workload"
  | Zipf_theta _ -> "zipf_theta"
  | Write_fraction _ -> "write_fraction"
  | Payload _ -> "payload_bytes"
  | Txn_keys _ -> "txn_keys"
  | Clock_skew _ -> "clock_skew_s"
  | Latency _ -> "latency"
  | Servers _ -> "servers"
  | Clients _ -> "clients"
  | Load _ -> "load_tps"

(* Each axis value as (display label, point update). *)
let settings = function
  | Workload ws ->
    List.map (fun w -> (workload_label w, fun p -> { p with workload = w })) ws
  | Zipf_theta vs ->
    List.map (fun v -> (fstr v, fun p -> { p with zipf_theta = v })) vs
  | Write_fraction vs ->
    List.map (fun v -> (fstr v, fun p -> { p with write_fraction = v })) vs
  | Payload vs ->
    List.map (fun v -> (string_of_int v, fun p -> { p with payload_bytes = v })) vs
  | Txn_keys vs ->
    List.map
      (fun (lo, hi) ->
        ( Printf.sprintf "%d-%d" lo hi,
          fun p -> { p with txn_keys_min = lo; txn_keys_max = hi } ))
      vs
  | Clock_skew vs ->
    List.map (fun v -> (fstr v, fun p -> { p with clock_skew = v })) vs
  | Latency vs ->
    List.map (fun v -> (latency_label v, fun p -> { p with latency = v })) vs
  | Servers vs ->
    List.map (fun v -> (string_of_int v, fun p -> { p with n_servers = v })) vs
  | Clients vs ->
    List.map (fun v -> (string_of_int v, fun p -> { p with n_clients = v })) vs
  | Load vs -> List.map (fun v -> (fstr v, fun p -> { p with load = v })) vs

let axis_labels a = List.map fst (settings a)

(* Row-major grid expansion: the first axis varies slowest. Every cell
   carries its coordinates as (axis name, value label) pairs in axis
   order — the key the reporter groups and joins on. *)
let expand base axes =
  List.fold_left
    (fun acc axis ->
      let name = axis_name axis in
      List.concat_map
        (fun (coords, p) ->
          List.map
            (fun (lbl, set) -> (coords @ [ (name, lbl) ], set p))
            (settings axis))
        acc)
    [ ([], base) ]
    axes

(* --- Runner / workload materialization ------------------------------- *)

let latency_spec = function
  | Lan -> Harness.Runner.Uniform { one_way = 50e-6; jitter = 5e-6 }
  | Datacenter ->
    (* the runner's default: asymmetric datacenter-like delays *)
    Harness.Runner.Asymmetric
      { min_one_way = 120e-6; max_one_way = 380e-6; jitter = 25e-6 }
  | Wan ->
    Harness.Runner.Asymmetric
      { min_one_way = 500e-6; max_one_way = 20e-3; jitter = 200e-6 }
  | Spec l -> l

(* Zipf table this point's generator draws from, if any — the memo key
   for the driver's shared-table cache. *)
let zipf_key p =
  match p.workload with
  | Hotspot _ | Google_f1 | Google_wf | Facebook_tao | Tpcc -> None
  | Micro_mix | Ycsb _ | Rmw_chain _ -> Some (p.n_keys, p.zipf_theta)
  | Micro m -> Some (m.Workload.Micro.n_keys, m.Workload.Micro.zipf_theta)

let workload_of ?zipf p : Harness.Workload_sig.t =
  let mean = float_of_int p.payload_bytes in
  let stddev = mean /. 4.0 in
  match p.workload with
  | Micro_mix ->
    Workload.Micro.make ?zipf
      {
        Workload.Micro.n_keys = p.n_keys;
        zipf_theta = p.zipf_theta;
        write_fraction = p.write_fraction;
        ro_keys_min = p.txn_keys_min;
        ro_keys_max = p.txn_keys_max;
        rw_keys_min = p.txn_keys_min;
        rw_keys_max = p.txn_keys_max;
        write_ops_fraction = 0.5;
        value_bytes_mean = mean;
        value_bytes_stddev = stddev;
        label = "atlas-micro";
      }
  | Hotspot h ->
    Workload.Hotspot.make
      {
        Workload.Hotspot.n_keys = p.n_keys;
        hot_keys = h.hot_keys;
        hot_fraction = h.hot_fraction;
        write_fraction = p.write_fraction;
        ops_min = p.txn_keys_min;
        ops_max = p.txn_keys_max;
        value_bytes_mean = mean;
        value_bytes_stddev = stddev;
        label = "hotspot";
      }
  | Ycsb m ->
    Workload.Ycsb.make ?zipf ~mix:m
      {
        Workload.Ycsb.n_keys = p.n_keys;
        zipf_theta = p.zipf_theta;
        ops_min = p.txn_keys_min;
        ops_max = p.txn_keys_max;
        value_bytes_mean = mean;
        value_bytes_stddev = stddev;
      }
  | Rmw_chain c ->
    Workload.Rmw_chain.make ?zipf
      {
        Workload.Rmw_chain.n_keys = p.n_keys;
        zipf_theta = p.zipf_theta;
        chain_min = c.chain_min;
        chain_max = c.chain_max;
        value_bytes_mean = mean;
        value_bytes_stddev = stddev;
      }
  | Google_f1 -> Workload.Google_f1.make ()
  | Google_wf -> Workload.Google_f1.make_wf ~write_fraction:p.write_fraction ()
  | Facebook_tao -> Workload.Facebook_tao.make ()
  | Tpcc -> Workload.Tpcc.make ~n_servers:p.n_servers ()
  | Micro m -> Workload.Micro.make ?zipf m
