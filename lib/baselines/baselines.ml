(* The five baseline concurrency-control protocols the paper evaluates
   against NCC (§5): three strictly serializable (dOCC, d2PL in two
   variants, Janus-CC transaction reordering) and two serializable
   (TAPIR-CC, MVTO).

   Each protocol file holds its messages, its server and its client
   half. The client halves share one coordinator, {!Coord}: it starts
   an attempt (wire id, pre-assigned timestamp), opens rounds, drops
   stale and duplicate replies, sends the Decides and reports the
   outcome, and cancels on the request timeout. A protocol supplies its
   message builders, what a completed round leads to, and which
   servers hear the Decide.

   The servers of dOCC, d2PL, TAPIR-CC and MVTO share one participant,
   {!Part}: one table from wire id to the attempt's record here (client,
   highest round served, installed versions, locked keys), a decided
   marker that refuses a round its Decide overtook, and the decision
   that resolves the versions and releases the keys. A protocol keeps
   only its own validation and execution. *)

module Common = Common
module Coord = Coord
module Part = Part
module Docc = Docc
module D2pl = D2pl
module Tr = Tr
module Tapir = Tapir
module Mvto = Mvto

let docc = Docc.protocol
let d2pl_no_wait = D2pl.no_wait
let d2pl_wound_wait = D2pl.wound_wait
let janus_cc = Tr.protocol
let tapir_cc = Tapir.protocol
let mvto = Mvto.protocol

(* All baselines with their consistency level: [`Strict] ones must pass
   the strict-serializability check, [`Ser] ones only serializability. *)
let all : (Harness.Protocol.t * [ `Strict | `Ser ]) list =
  [
    (docc, `Strict);
    (d2pl_no_wait, `Strict);
    (d2pl_wound_wait, `Strict);
    (janus_cc, `Strict);
    (tapir_cc, `Ser);
    (mvto, `Ser);
  ]
