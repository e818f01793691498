(* Parameterized micro-workload: a tunable mix of read-only and
   read-write transactions over a Zipfian key space. This is the
   uniform substrate behind the Google-F1 and write-fraction workloads
   and the low-contention probe used for the Fig 8 properties table. *)

open Kernel

type params = {
  n_keys : int;
  zipf_theta : float;
  write_fraction : float;  (* fraction of transactions that write *)
  ro_keys_min : int;       (* keys per read-only transaction *)
  ro_keys_max : int;
  rw_keys_min : int;       (* keys per read-write transaction *)
  rw_keys_max : int;
  write_ops_fraction : float;  (* fraction of ops that are writes, in RW txns *)
  value_bytes_mean : float;
  value_bytes_stddev : float;
  label : string;
}

(* Unique write payloads so every version is distinguishable. Shared
   by all workload generators (tpcc, facebook_tao, examples); the tag
   is opaque to protocols and never feeds control flow, results or
   digests, so it needs no per-run reset — but it is domain-local so
   parallel sweep jobs (Harness.Pool) cannot race on it. *)
let value_counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_value () =
  let c = Domain.DLS.get value_counter in
  incr c;
  !c

(* Distinct Zipf-popular keys for one transaction. *)
let distinct_keys rng zipf n =
  let rec draw acc left guard =
    if left = 0 || guard = 0 then acc
    else
      let k = Sim.Rng.zipf_draw rng zipf in
      if List.mem k acc then draw acc left (guard - 1)
      else draw (k :: acc) (left - 1) guard
  in
  draw [] n (n * 20)

let make ?zipf (p : params) : Harness.Workload_sig.t =
  (* [?zipf] lets sweep drivers share one precomputed table across many
     workload instances with the same (n_keys, theta) — the zeta
     normalization in zipf_create is the expensive part. The caller
     guarantees the table matches the params. *)
  let zipf =
    match zipf with
    | Some z -> z
    | None -> Sim.Rng.zipf_create ~n:p.n_keys ~theta:p.zipf_theta
  in
  (* the transaction labels, built once, not per transaction *)
  let rw_label = p.label ^ "-rw" and ro_label = p.label ^ "-ro" in
  let gen rng ~client =
    let bytes =
      int_of_float
        (Sim.Rng.gaussian rng ~mean:p.value_bytes_mean ~stddev:p.value_bytes_stddev)
    in
    if Sim.Rng.flip rng p.write_fraction then begin
      (* read-write transaction *)
      let n = Sim.Rng.int_range rng p.rw_keys_min p.rw_keys_max in
      let keys = distinct_keys rng zipf n in
      let ops =
        List.map
          (fun k ->
            if Sim.Rng.flip rng p.write_ops_fraction then
              Types.Write (k, fresh_value ())
            else Types.Read k)
          keys
      in
      (* ensure at least one write so the transaction is really RW *)
      let ops =
        match ops with
        | Types.Read k :: rest when List.for_all (fun o -> not (Types.is_write o)) rest
          ->
          Types.Write (k, fresh_value ()) :: rest
        | ops -> ops
      in
      Txn.make ~label:rw_label ~bytes ~client [ ops ]
    end
    else begin
      let n = Sim.Rng.int_range rng p.ro_keys_min p.ro_keys_max in
      let keys = distinct_keys rng zipf n in
      Txn.make ~label:ro_label ~bytes ~client
        [ List.map (fun k -> Types.Read k) keys ]
    end
  in
  { Harness.Workload_sig.name = p.label; gen }
