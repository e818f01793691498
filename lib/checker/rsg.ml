(* Real-time Serialization Graph checker (paper §2.2, after Adya).

   The harness records, for every *committed* transaction, the version
   ids it read and installed, plus the real-time interval [start,
   finish] observed at its client (start = first request issued, finish
   = outcome known). Servers contribute the per-key order in which
   committed versions were installed. From these we build:

     execution edges
       ww: writer(v_i)  -> writer(v_{i+1})   (consecutive versions)
       wr: writer(v)    -> each reader of v
       rw: reader(v_i)  -> writer(v_{i+1})
     real-time edges
       t1 -> t2 whenever finish(t1) < start(t2)

   and check acyclicity. Execution edges alone must be acyclic for
   serializability (Invariant 1); adding real-time edges must keep the
   graph acyclic for *strict* serializability (Invariant 2).

   Real-time edges are quadratic in number, so they are compressed with
   a commit-event chain: commit events ordered by finish time form a
   chain of auxiliary nodes c_1 -> c_2 -> ...; each transaction points
   to its own commit event, and each transaction is pointed to by the
   last commit event that finishes before its start. Reachability (and
   hence cycles) through the chain is exactly reachability through the
   full set of real-time edges.

   The graph plumbing (adjacency, dense freeze, cycle search) lives in
   {!Graph}; the verdict/evidence types in {!Verdict}. Both are shared
   with the streaming checker {!Stream}, whose serializable mode replays
   a history through exactly this code path. *)

open Kernel

type txn_record = {
  txn : int;
  start : float;
  finish : float;
  reads : (Types.key * int) list;   (* (key, vid read) *)
  writes : (Types.key * int) list;  (* (key, vid installed) *)
}

type t = {
  mutable records : txn_record list;
  version_orders : (Types.key, int list) Hashtbl.t;  (* oldest-first vids *)
}

let create () = { records = []; version_orders = Hashtbl.create 256 }

let record_commit t ~txn ~start ~finish ~reads ~writes =
  (* ncc-lint: allow R18 — retaining every record is the post-hoc check; a serializable stream keeps the whole history by design *)
  t.records <- { txn; start; finish; reads; writes } :: t.records

let record_version_order t key vids = Hashtbl.replace t.version_orders key vids

let n_committed t = List.length t.records

let records t = t.records

(* --- graph construction ------------------------------------------- *)

let build t ~strict =
  let g = Graph.create () in
  let writer_of_vid = Hashtbl.create 4096 in
  List.iter
    (fun r -> List.iter (fun (_, vid) -> Hashtbl.replace writer_of_vid vid r.txn) r.writes)
    t.records;
  (* Any vid not written by a committed txn belongs to the initial
     writer (node 0). *)
  let writer vid = Option.value ~default:0 (Hashtbl.find_opt writer_of_vid vid) in
  (* readers_of vid *)
  let readers = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      List.iter
        (fun (_, vid) ->
          let l = try Hashtbl.find readers vid with Not_found -> [] in
          Hashtbl.replace readers vid (r.txn :: l))
        r.reads)
    t.records;
  (* ww and rw edges from per-key version orders; traversals are sorted
     (Detmap) so edge insertion order — and hence the cycle the DFS
     reports — is independent of the hash function *)
  Detmap.iter_sorted
    (fun _key vids ->
      let rec walk = function
        | [] | [ _ ] -> ()
        | older :: newer :: rest ->
          Graph.edge g (writer older) (writer newer);
          List.iter
            (fun reader -> Graph.edge g reader (writer newer))
            (Option.value ~default:[] (Hashtbl.find_opt readers older));
          walk (newer :: rest)
      in
      walk vids)
    t.version_orders;
  (* wr edges *)
  Detmap.iter_sorted
    (fun vid rs -> List.iter (fun reader -> Graph.edge g (writer vid) reader) rs)
    readers;
  (* make sure every committed txn is a node *)
  List.iter (fun r -> Graph.add_node g r.txn) t.records;
  if strict then begin
    (* commit-event chain: events sorted by finish time *)
    let by_finish =
      List.sort (fun a b -> Float.compare a.finish b.finish) t.records
    in
    let arr = Array.of_list by_finish in
    let chain_node i = -(i + 1) in
    Array.iteri
      (fun i r ->
        Graph.edge g r.txn (chain_node i);
        if i + 1 < Array.length arr then
          Graph.edge g (chain_node i) (chain_node (i + 1)))
      arr;
    (* each txn is reachable from the last event finishing before its
       start *)
    let finishes = Array.map (fun r -> r.finish) arr in
    let last_before start =
      (* greatest i with finishes.(i) < start, by binary search *)
      let lo = ref (-1) and hi = ref (Array.length finishes - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if finishes.(mid) < start then lo := mid else hi := mid - 1
      done;
      if !lo >= 0 && finishes.(!lo) < start then Some !lo else None
    in
    List.iter
      (fun r ->
        match last_before r.start with
        | Some i -> Graph.edge g (chain_node i) r.txn
        | None -> ())
      t.records
  end;
  g

(* [check ~strict:false] verifies serializability (Invariant 1 only);
   [check ~strict:true] verifies strict serializability (both
   invariants). *)
(* A committed read must have observed a version that survived: one
   present in some key's committed order. Reading a vid absent from
   every order means the writer aborted (dirty read / cascading abort
   bug in the protocol under test). *)
let dirty_reads t =
  let surviving = Hashtbl.create 4096 in
  Detmap.iter_sorted
    (fun _ vids -> List.iter (fun vid -> Hashtbl.replace surviving vid ()) vids)
    t.version_orders;
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (key, vid) ->
          if Hashtbl.mem surviving vid then None else Some (r.txn, key, vid))
        r.reads)
    t.records

let check t ~strict =
  match dirty_reads t with
  | (txn, key, vid) :: _ -> Verdict.Violation (Verdict.Dirty_read { txn; key; vid })
  | [] ->
  let g = build t ~strict in
  (match Graph.find_cycle g with
   | None -> Verdict.Ok
   | Some witness -> Verdict.Violation (Verdict.Cycle { strict; witness }))
