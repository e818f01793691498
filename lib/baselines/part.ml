(* The server-side participant every lock- or timestamp-based baseline
   shares (dOCC, d2PL, TAPIR-CC, MVTO), the counterpart of {!Coord}.
   A {!Kernel.Wires} table maps a wire id to its attempt's record here:
   the client, the highest round served, the versions installed and the
   keys locked. Once a Decide arrives the wire maps to its outcome
   instead, for the run: a round the Decide overtook is refused and
   installs nothing, and a second Decide is a no-op. A protocol keeps
   only its own validation and execution. *)

open Kernel
module Store = Mvstore.Store
module Locks = Mvstore.Locks

type attempt = {
  client : Types.node_id;
  mutable round : int;  (* highest round served; rounds count from 1 *)
  mutable versions : (Types.key * Store.version) list;  (* resolved in list order *)
  mutable keys : Types.key list;  (* locked here *)
}

type t = { store : Store.t; locks : Locks.t; attempts : attempt Wires.t }

let create () =
  { store = Store.create (); locks = Locks.create ();
    attempts = Wires.create (fun () -> { client = -1; round = 0; versions = []; keys = [] }) }

let is_decided p wire = Wires.decided p.attempts wire

(* The live record of [wire], if any. *)
let find p wire =
  let a = Wires.find p.attempts wire in
  if a == Wires.absent p.attempts then None else Some a

(* [wire]'s record, opened for [client] if it has none. Not for a
   decided wire. *)
let get p ~wire ~client =
  let a = Wires.find p.attempts wire in
  if a != Wires.absent p.attempts then a
  else begin
    let a = { client; round = 0; versions = []; keys = [] } in
    Wires.bind p.attempts wire a;
    a
  end

(* Admit round [round] of [wire] from [client]: [`Decided] when the
   wire's Decide has arrived (the caller refuses the round),
   [`Duplicate] when the round was served already (the caller drops
   it), else the record, with the round marked served. *)
let admit p ~wire ~client ~round =
  if is_decided p wire then `Decided
  else
    let a = get p ~wire ~client in
    if round <= a.round then `Duplicate
    else begin
      a.round <- round;
      `Serve a
    end

(* Lock [key] for wire [owner.txn], whose record is [a]; a granted key
   is released at the decision. *)
let lock p a key ~owner ~mode =
  match Locks.try_acquire p.locks key ~owner ~mode with
  | `Granted ->
    if not (Types.mem_key key a.keys) then a.keys <- key :: a.keys;
    `Granted
  | `Conflict _ as c -> c

(* Mark [wire] decided, then commit or abort the versions of its record
   (the empty one when it has none or was decided already) in list
   order and release its keys. *)
let decide p ~wire ~commit =
  let a = Wires.decide p.attempts wire ~commit in
  List.iter
    (fun (key, v) ->
      if commit then Store.commit_in p.store key v else Store.abort_version p.store key v)
    a.versions;
  List.iter (fun key -> Locks.release p.locks key ~txn:wire) a.keys
