(* The client-side coordinator every baseline shares (§5). Each attempt
   pre-assigns a timestamp from the local clock, runs its rounds, sends
   asynchronous Decides and is cancelled by the harness's request
   timeout. A protocol supplies its message builders (top-level
   functions of an attempt, passed without building a closure), what a
   completed round leads to, and which servers hear the Decide
   ([decide_to]). Nothing here depends on which protocol it serves. *)

open Kernel

type attempt = {
  txn : Txn.t;
  wire : int;
  ts : Ts.t;
  mutable shots : Txn.shot list;  (* shots not yet sent *)
  mutable final : bool;  (* in the prepare / commit round *)
  mutable awaiting : int;  (* replies still due this round *)
  mutable round : int;  (* current round; stamps the round's messages *)
  mutable replied : Types.node_id list;  (* servers heard this round *)
  mutable results : Common.rres list;  (* newest first *)
  mutable ok : bool;  (* no reply has refused the attempt *)
  mutable decide_to : Types.node_id list;  (* servers the Decide must reach *)
  mutable deps : int list;  (* Janus-CC's dependency set *)
}

type 'm t = {
  ctx : 'm Cluster.Net.ctx;
  report : Outcome.t -> unit;
  inflight : attempt Intmap.t;  (* by wire id *)
  attempts : int Intmap.t;  (* txn id -> latest attempt number *)
  mutable ts_floor : int;
  decide : int -> bool -> 'm;  (* wire -> commit -> the Decide message *)
}

let create ctx ~report ~decide =
  let inflight = Intmap.create () and attempts = Intmap.create () in
  { ctx; report; inflight; attempts; ts_floor = 0; decide }

(* Pre-assigned timestamp from the local (possibly skewed) clock, kept
   strictly monotonic per client so same-instant transactions from one
   client never collide (§4.1's uniqueness assumption). The floor is
   per-coordinator state, never global: a global floor would leak
   ordering noise across independent simulations in one process. *)
let clock_ts c =
  let time = max (Cluster.Net.local_ns c.ctx) (c.ts_floor + 1) in
  c.ts_floor <- time;
  Ts.make ~time ~cid:c.ctx.Cluster.Net.self

(* Begin a fresh attempt of [txn] under a new wire id. The baselines
   execute the declared shot list only. *)
let start c (txn : Txn.t) =
  if Option.is_some txn.Txn.dynamic then
    invalid_arg "interactive (dynamic) transactions require the NCC coordinator";
  let attempt =
    match Intmap.find_opt c.attempts txn.Txn.id with None -> 1 | Some a -> a + 1
  in
  Intmap.replace c.attempts txn.Txn.id attempt;
  let wire = Txn.wire_id ~txn_id:txn.Txn.id ~attempt in
  let a =
    {
      txn;
      wire;
      ts = clock_ts c;
      shots = txn.Txn.shots;
      final = false;
      awaiting = 0;
      round = 0;
      replied = [];
      results = [];
      ok = true;
      decide_to = [];
      deps = [];
    }
  in
  Intmap.replace c.inflight wire a;
  a

let find c wire = Intmap.find_opt c.inflight wire

(* The in-flight state of [txn]'s latest attempt, if any: what a
   request timeout refers to. *)
let current c (txn : Txn.t) =
  match Intmap.find_opt c.attempts txn.Txn.id with
  | None -> None
  | Some attempt -> find c (Txn.wire_id ~txn_id:txn.Txn.id ~attempt)

(* Open the next round, expecting [n] replies. *)
let open_round a n =
  a.awaiting <- n;
  a.round <- a.round + 1;
  a.replied <- []

let rec send_groups c a ~contact build = function
  | [] -> ()
  | (server, ops) :: rest ->
    if contact && not (Types.mem_node server a.decide_to) then
      a.decide_to <- server :: a.decide_to;
    c.ctx.Cluster.Net.send ~dst:server (build a ops);
    send_groups c a ~contact build rest

(* Open a round and send [build a ops] to each (server, ops) group in
   order. With [contact], each server joins [decide_to] (newest first)
   as it is sent to. *)
let send_round c a ~contact build groups =
  open_round a (List.length groups);
  send_groups c a ~contact build groups

(* The round stamp of a reply that carries none: it counts only in the
   final round. *)
let unstamped = -1

(* Count [src]'s reply to attempt [wire], folding in its verdict and
   results. [None] for an unknown wire, a stale round or a duplicate
   delivery, which the caller drops; the round is complete when the
   attempt's [awaiting] reaches 0. *)
let tally c ~src ~wire ~round ~ok results =
  match find c wire with
  | Some a as found
    when (if round = unstamped then a.final else round = a.round)
         && not (Types.mem_node src a.replied) ->
    a.replied <- src :: a.replied;
    if not ok then a.ok <- false;
    a.results <- List.rev_append results a.results;
    a.awaiting <- a.awaiting - 1;
    found
  | Some _ | None -> None

let outcome (a : attempt) ~status ~commit_ts =
  let results = List.rev a.results in
  let reads =
    List.filter_map
      (fun (r : Common.rres) ->
        if r.b_is_write then None else Some (r.b_key, r.b_vid, r.b_value))
      results
  in
  let writes =
    List.filter_map
      (fun (r : Common.rres) -> if r.b_is_write then Some (r.b_key, r.b_vid) else None)
      results
  in
  { Outcome.txn = a.txn; status; reads; writes; commit_ts }

(* Drop the attempt and report its outcome. A committed transaction is
   never resubmitted (txn ids are unique per generated transaction), so
   its counter is dropped too, keeping memory flat over long runs; an
   aborted one keeps it so the retry draws a fresh wire id. *)
let close c a status ~commit_ts =
  Intmap.remove c.inflight a.wire;
  (match status with
   | Outcome.Committed -> Intmap.remove c.attempts a.txn.Txn.id
   | Outcome.Aborted _ -> ());
  c.report (outcome a ~status ~commit_ts)

let rec send_decides c ~wire ~commit = function
  | [] -> ()
  | server :: rest ->
    c.ctx.Cluster.Net.send ~dst:server (c.decide wire commit);
    send_decides c ~wire ~commit rest

(* Decide the attempt: the Decide goes to [decide_to] in list order,
   then the outcome is reported. *)
let commit c a =
  send_decides c ~wire:a.wire ~commit:true a.decide_to;
  close c a Outcome.Committed ~commit_ts:(Some a.ts)

let abort c a reason =
  send_decides c ~wire:a.wire ~commit:false a.decide_to;
  close c a (Outcome.Aborted reason) ~commit_ts:None

(* Request timeout: abandon the attempt. The abort Decides release
   whatever it holds on [decide_to]; servers refuse its late messages
   through their decided sets. With nothing in flight (the submit
   raced the cancel) the timeout is still reported, once. *)
let cancel c txn =
  (match current c txn with
   | Some a -> abort c a Outcome.Timed_out
   | None -> c.report (Outcome.aborted ~reason:Outcome.Timed_out txn));
  `Cancelled
