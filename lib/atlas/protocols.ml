(* The protocols the atlas sweeps: every non-replicated protocol in
   the tree, ablations and negative control included — a scenario picks
   a subset by name. (The replicated NCC-R variants need
   replicas_per_server plumbing the knob space doesn't model yet; see
   docs/atlas.md, "Model".) *)

let all : (string * Harness.Protocol.t) list =
  [
    ("NCC", Ncc.protocol);
    ("NCC-RW", Ncc.protocol_rw);
    ("NCC-noSR", Ncc.protocol_no_smart_retry);
    ("NCC-noAAT", Ncc.protocol_no_async_aware);
    ("NCC-noRTC", Ncc.protocol_no_rtc);  (* negative control *)
    ("dOCC", Baselines.docc);
    ("d2PL-NW", Baselines.d2pl_no_wait);
    ("d2PL-WW", Baselines.d2pl_wound_wait);
    ("Janus-CC", Baselines.janus_cc);
    ("TAPIR-CC", Baselines.tapir_cc);
    ("MVTO", Baselines.mvto);
  ]

let names = List.map fst all

(* Case-insensitive lookup, like the CLI's protocol parsing. *)
let find name =
  let ls = String.lowercase_ascii name in
  List.find_opt (fun (n, _) -> String.equal (String.lowercase_ascii n) ls) all
  |> Option.map snd

(* NCC variants (ablations included) are not baselines: the
   NCC-vs-best-baseline delta compares against everything else. *)
let is_ncc_family name =
  String.length name >= 3 && String.equal (String.sub name 0 3) "NCC"
