(* The one name -> protocol table: every protocol in the tree, the
   ablations, the negative control and the replicated NCC-R variants.
   `ncc_sim -p` accepts exactly these names, and atlas presets pick
   their rosters from them by name. *)

(* The variants that need replica nodes: without them they run
   unreplicated. *)
let replicated = [ ("NCC-R", Ncc_r.protocol); ("NCC-R-def", Ncc_r.protocol_deferred) ]

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
  @ replicated

let names = List.map fst all

(* Case-insensitive lookup: the display name and the protocol. *)
let find name =
  let ls = String.lowercase_ascii name in
  List.find_opt (fun (n, _) -> String.equal (String.lowercase_ascii n) ls) all

let is_replicated name = List.mem_assoc name replicated

(* NCC variants (ablations included) are not baselines: the
   NCC-vs-best-baseline delta compares against everything else. *)
let is_ncc_family name =
  String.length name >= 3 && String.equal (String.sub name 0 3) "NCC"
