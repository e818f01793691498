(* A per-server lock table for the lock-based baselines (dOCC's
   validation locks, d2PL): shared/exclusive modes, re-entrant
   acquisition and upgrade of a sole shared holder. A request never
   queues: a conflict reports the other holders and the protocol
   decides whether to abort, wound or retry. A key's entry holds its
   holders, newest first, and goes when the last one releases. *)

open Kernel

type mode = Shared | Exclusive

type owner = { txn : int; ts : Ts.t }

type t = (owner * mode) list Inttbl.t

let create () : t = Inttbl.create ~empty:[]

let compatible holders ~txn ~mode =
  match mode with
  | Shared -> List.for_all (fun (o, m) -> m = Shared || o.txn = txn) holders
  | Exclusive -> List.for_all (fun (o, _) -> o.txn = txn) holders

let try_acquire t key ~owner ~mode =
  let holders = Inttbl.find t key in
  if compatible holders ~txn:owner.txn ~mode then begin
    let others = List.filter (fun (o, _) -> o.txn <> owner.txn) holders in
    let mode =
      if List.exists (fun (o, m) -> o.txn = owner.txn && m = Exclusive) holders then Exclusive
      else mode
    in
    Inttbl.replace t key ((owner, mode) :: others);
    `Granted
  end
  else
    `Conflict
      (List.filter_map (fun (o, _) -> if o.txn = owner.txn then None else Some o) holders)

let release t key ~txn =
  match List.filter (fun (o, _) -> o.txn <> txn) (Inttbl.find t key) with
  | [] -> Inttbl.remove t key
  | holders -> Inttbl.replace t key holders
