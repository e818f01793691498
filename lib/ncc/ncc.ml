(* Public face of the NCC library: packaged protocol values for the
   harness, plus named variants (NCC-RW disables the read-only fast
   path; the ablation variants switch off one optimization each). *)

module Msg = Msg
module Server = Server
module Client = Client

let make_protocol ?(config = Msg.default_config) ?(name = "NCC") () : Harness.Protocol.t =
  (module struct
    let name = name

    type msg = Msg.msg

    let msg_cost = Msg.cost
    let msg_phase = Msg.phase

    type server = Server.t

    let make_server ctx = Server.create config ctx
    let server_handle = Server.handle
    let server_stores s = [ Server.store s ]
    let server_counters = Server.counters

    type client = Client.t

    let make_client ctx ~report = Client.create config ctx ~report
    let client_handle = Client.handle
    let submit = Client.submit
    let cancel = Client.cancel
    let client_counters = Client.counters

    include Harness.Protocol.No_replicas
  end)

let default_config = Msg.default_config

(* Full NCC: read-only fast path, smart retry, asynchrony-aware
   timestamps, early abort. *)
let protocol = make_protocol ()

(* NCC-RW: every transaction runs the read-write protocol (§5,
   evaluation baseline). *)
let protocol_rw =
  make_protocol ~config:{ Msg.default_config with use_ro = false } ~name:"NCC-RW" ()

(* Ablations (§5 / DESIGN.md): one optimization off at a time. *)
let protocol_no_smart_retry =
  make_protocol
    ~config:{ Msg.default_config with smart_retry = false }
    ~name:"NCC-noSR" ()

let protocol_no_async_aware =
  make_protocol
    ~config:{ Msg.default_config with async_aware = false }
    ~name:"NCC-noAAT" ()

(* Paper-faithful read-only fence: t_ro checked per server rather than
   per key. More fast-path aborts under writes (the degradation the
   paper's Fig 7a shows for NCC). *)
let protocol_server_fence =
  make_protocol
    ~config:{ Msg.default_config with ro_fence = `Server }
    ~name:"NCC-sfence" ()

(* NEGATIVE CONTROL, not a usable variant: response timing control
   disabled. Exists to demonstrate the timestamp-inversion pitfall —
   run it under the strict checker and watch it fail (§3). *)
let protocol_no_rtc =
  make_protocol ~config:{ Msg.default_config with rtc = false } ~name:"NCC-noRTC" ()
