(** TPC-C with the paper's setup (Fig 4): mix New-Order 44% /
    Payment 44% / Delivery 4% / Order-Status 4% / Stock-Level 4%;
    10 districts per warehouse, 8 warehouses per server by default;
    Payment and Order-Status are multi-shot (§5.1). Rows are placed on
    their warehouse's home server. *)

type t

val create : ?warehouses_per_server:int -> n_servers:int -> unit -> t

(** A district's row key (exposed for tests). *)
val district_key : t -> int -> int -> Kernel.Types.key

val make :
  ?warehouses_per_server:int -> n_servers:int -> unit -> Harness.Workload_sig.t
