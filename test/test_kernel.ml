(* Kernel types: transactions, outcomes, wire-id scheme. *)

open Kernel

let txn_read_only_derivation () =
  Txn.reset_ids ();
  let ro = Txn.make ~client:9 [ [ Types.Read 1; Types.Read 2 ]; [ Types.Read 3 ] ] in
  let rw = Txn.make ~client:9 [ [ Types.Read 1 ]; [ Types.Write (2, 5) ] ] in
  Alcotest.(check bool) "reads only" true ro.Txn.read_only;
  Alcotest.(check bool) "write detected" false rw.Txn.read_only;
  Alcotest.(check int) "fresh ids" 1 ro.Txn.id;
  Alcotest.(check int) "sequential ids" 2 rw.Txn.id

let txn_projections () =
  let t =
    Txn.make ~client:9 [ [ Types.Read 1; Types.Write (2, 5) ]; [ Types.Read 3 ] ]
  in
  Alcotest.(check (list int)) "keys" [ 1; 2; 3 ] (Txn.keys t);
  Alcotest.(check (list int)) "read keys" [ 1; 3 ] (Txn.read_keys t);
  Alcotest.(check (list int)) "write keys" [ 2 ] (Txn.write_keys t);
  Alcotest.(check int) "shots" 2 (Txn.n_shots t);
  Alcotest.(check int) "ops" 3 (List.length (Txn.ops t))

let wire_ids_unique =
  QCheck.Test.make ~name:"wire ids unique per (txn, attempt)" ~count:300
    QCheck.(pair (pair (1 -- 10_000) (1 -- 1024)) (pair (1 -- 10_000) (1 -- 1024)))
    (fun ((t1, a1), (t2, a2)) ->
      let w1 = Txn.wire_id ~txn_id:t1 ~attempt:a1 in
      let w2 = Txn.wire_id ~txn_id:t2 ~attempt:a2 in
      (t1 = t2 && a1 = a2) = (w1 = w2))

let outcome_helpers () =
  let t = Txn.make ~client:3 [ [ Types.Read 1 ] ] in
  let ab = Outcome.aborted ~reason:Outcome.Early_abort t in
  Alcotest.(check bool) "aborted" false (Outcome.committed ab);
  Alcotest.(check string) "reason string" "early-abort"
    (Outcome.reason_to_string Outcome.Early_abort);
  let ok =
    {
      Outcome.txn = t;
      status = Outcome.Committed;
      reads = [ (1, 5, 42) ];
      writes = [];
      commit_ts = Some (Ts.make ~time:7 ~cid:3);
    }
  in
  Alcotest.(check bool) "committed" true (Outcome.committed ok)

let op_helpers () =
  Alcotest.(check int) "read key" 4 (Types.op_key (Types.Read 4));
  Alcotest.(check int) "write key" 9 (Types.op_key (Types.Write (9, 1)));
  Alcotest.(check bool) "write is write" true (Types.is_write (Types.Write (1, 1)));
  Alcotest.(check bool) "read is not" false (Types.is_write (Types.Read 1))

(* Intmap against an association-list model: random binds, drops and
   lookups over a small key space (so keys collide and slots shift),
   enough operations to grow past the first capacity. *)
let intmap_matches_model =
  QCheck.Test.make ~name:"Intmap agrees with an assoc-list model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (pair (0 -- 2) (-20 -- 60)))
    (fun cmds ->
      let m = Intmap.create () in
      let model = ref [] in
      List.for_all
        (fun (op, k) ->
          (match op with
           | 0 ->
             Intmap.replace m k (k * 3);
             model := (k, k * 3) :: List.remove_assoc k !model
           | 1 ->
             Intmap.remove m k;
             model := List.remove_assoc k !model
           | _ -> ());
          Intmap.find_opt m k = List.assoc_opt k !model
          && Intmap.length m = List.length !model)
        cmds
      && List.for_all
           (fun k -> Intmap.find_opt m k = List.assoc_opt k !model)
           (List.init 81 (fun i -> i - 20)))

(* Inttbl against a Hashtbl model, on keys built to collide: every
   key of a case shares one residue modulo 8 (as TPC-C's keys do on one
   of 8 servers), plus keys whose Fibonacci home is the last, next to
   last or first slot of the array at every capacity, so probe runs
   wrap around the array end and removals shift bindings across it.
   Both layouts run the same commands; after every step the length,
   every lookup and the sorted traversal must match the model. *)
let fib_home ~bits k = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

(* The first [n] non-negative keys whose 5-bit home is [slot]. *)
let keys_homing slot n =
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if fib_home ~bits:5 k = slot then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go 0 [] n

let wrap_keys = Array.of_list (keys_homing 31 10 @ keys_homing 30 4 @ keys_homing 0 6)

let inttbl_matches_model =
  QCheck.Test.make ~name:"Inttbl agrees with a Hashtbl model" ~count:300
    QCheck.(pair (0 -- 7) (list_of_size Gen.(0 -- 300) (triple (0 -- 2) bool (0 -- 39))))
    (fun (h, cmds) ->
      let key wrap j =
        if wrap then wrap_keys.(j mod Array.length wrap_keys) else (8 * j) + h
      in
      let pool = List.init 40 (key false) @ Array.to_list wrap_keys in
      let pairs = Inttbl.create ~empty:(-1) in
      let keyed = Inttbl.keyed ~key:fst ~empty:(min_int, 0) in
      let model = Hashtbl.create 16 in
      let lookups_agree k =
        match Hashtbl.find_opt model k with
        | Some v ->
          Inttbl.find pairs k = v
          && snd (Inttbl.find keyed k) = v
          && Inttbl.mem pairs k && Inttbl.mem keyed k
        | None ->
          Inttbl.find pairs k = -1
          && Inttbl.find keyed k == Inttbl.absent keyed
          && (not (Inttbl.mem pairs k))
          && not (Inttbl.mem keyed k)
      in
      let agree () =
        let sorted = Detmap.sorted_bindings model in
        Inttbl.length pairs = Hashtbl.length model
        && Inttbl.length keyed = Hashtbl.length model
        && List.for_all lookups_agree pool
        && List.rev (Inttbl.fold_sorted (fun k v acc -> (k, v) :: acc) pairs []) = sorted
        && List.rev
             (Inttbl.fold_sorted
                (fun k (k', v) acc -> if k = k' then (k, v) :: acc else (k, -1) :: acc)
                keyed [])
           = sorted
        && List.map fst sorted = Detmap.sorted_keys model
      in
      List.for_all
        (fun (step, (op, wrap, j)) ->
          let k = key wrap j in
          (match op with
           | 0 | 1 ->
             Inttbl.replace pairs k step;
             Inttbl.replace keyed k (k, step);
             Hashtbl.replace model k step
           | _ ->
             Inttbl.remove pairs k;
             Inttbl.remove keyed k;
             Hashtbl.remove model k);
          agree ())
        (List.mapi (fun step c -> (step, c)) cmds))

(* Wires against a Map model: a wire is unseen, holds a record, or is
   decided with an outcome. [bind] never targets a decided wire (its
   precondition); [decide] must hand back the record the wire held, or
   [absent]; after every step every query agrees on every wire. *)
module Imap = Map.Make (Int)

type wrec = { wr_step : int; mutable wr_touched : bool }
type wstate = Open of wrec | Done of bool

let wires_match_model =
  QCheck.Test.make ~name:"Wires agrees with a Map model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (triple (0 -- 2) bool (0 -- 29)))
    (fun cmds ->
      let w = Wires.create (fun () -> { wr_step = -1; wr_touched = false }) in
      let absent = Wires.absent w in
      let model = ref Imap.empty in
      let agree wire =
        let found = Wires.find w wire
        and decided = Wires.decided w wire
        and committed = Wires.committed w wire in
        match Imap.find_opt wire !model with
        | None -> found == absent && (not decided) && not committed
        | Some (Open r) -> found == r && (not decided) && not committed
        | Some (Done c) -> found == absent && decided && committed = c
      in
      List.for_all
        (fun (step, (op, commit, wire)) ->
          let ok =
            match (op, Imap.find_opt wire !model) with
            | 0, Some (Done _) -> true
            | 0, (None | Some (Open _)) ->
              let r = { wr_step = step; wr_touched = false } in
              Wires.bind w wire r;
              model := Imap.add wire (Open r) !model;
              true
            | 1, state ->
              let got = Wires.decide w wire ~commit in
              (match state with
               | Some (Done _) -> got == absent
               | Some (Open r) ->
                 model := Imap.add wire (Done commit) !model;
                 got == r
               | None ->
                 model := Imap.add wire (Done commit) !model;
                 got == absent)
            | _ -> true
          in
          ok && List.for_all agree (List.init 30 Fun.id))
        (List.mapi (fun step c -> (step, c)) cmds))

(* The empty value and the outcome markers must be three distinct
   values, or a record could pass for an outcome. *)
let wires_refuse_shared_marker () =
  Alcotest.check_raises "shared marker"
    (Invalid_argument "Wires.create: marker must return a fresh value") (fun () ->
      ignore (Wires.create (fun () -> 0)))

let suite =
  [
    Alcotest.test_case "txn read-only derivation" `Quick txn_read_only_derivation;
    Alcotest.test_case "txn projections" `Quick txn_projections;
    Alcotest.test_case "outcome helpers" `Quick outcome_helpers;
    Alcotest.test_case "op helpers" `Quick op_helpers;
    Alcotest.test_case "Wires refuses a shared marker" `Quick wires_refuse_shared_marker;
  ]
  @ List.map QCheck_alcotest.to_alcotest 
      [ wire_ids_unique; intmap_matches_model; inttbl_matches_model; wires_match_model ]
