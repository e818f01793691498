(* The coarse transaction-lifecycle vocabulary every protocol maps its
   wire messages onto (Protocol.S.msg_phase). Keeping the set closed —
   rather than free-form strings per protocol — is what makes traces
   comparable across protocols: an NCC [Exec] and a d2PL [Acquire] both
   land on the "execute" track label, so the per-phase latency
   attribution the paper's §5 analysis needs reads the same way for
   every system under test. *)

type t =
  | Execute    (* read / execute shot processing *)
  | Reply      (* server -> client response, costed on the client CPU *)
  | Validate   (* prepare / validation round (OCC-style protocols) *)
  | Commit     (* commit / decide / apply *)
  | Abort      (* explicit aborts, wounds, cancellations *)
  | Retry      (* smart retry / timestamp renewal *)
  | Recover    (* coordinator-failure recovery *)
  | Replicate  (* replication-layer traffic (e.g. Raft) *)

let to_string = function
  | Execute -> "execute"
  | Reply -> "reply"
  | Validate -> "validate"
  | Commit -> "commit"
  | Abort -> "abort"
  | Retry -> "retry"
  | Recover -> "recover"
  | Replicate -> "replicate"

let all =
  [ Execute; Reply; Validate; Commit; Abort; Retry; Recover; Replicate ]

(* Handle events carry the phase as a small int (Sim.Trace records
   hold no strings); the exporter turns it back into the phase. *)
let code = function
  | Execute -> 0
  | Reply -> 1
  | Validate -> 2
  | Commit -> 3
  | Abort -> 4
  | Retry -> 5
  | Recover -> 6
  | Replicate -> 7

let of_code c = List.find_opt (fun p -> code p = c) all
