(* Lock table: compatibility, re-entrancy, upgrade, and entries freed
   with their last holder. *)

open Kernel
module Locks = Mvstore.Locks

let owner ?(t = 1) txn = { Locks.txn; ts = Ts.make ~time:t ~cid:txn }

let shared_compatible () =
  let l = Locks.create () in
  Alcotest.(check bool) "s1" true
    (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Shared = `Granted);
  Alcotest.(check bool) "s2" true
    (Locks.try_acquire l 1 ~owner:(owner 2) ~mode:Locks.Shared = `Granted);
  match Locks.try_acquire l 1 ~owner:(owner 3) ~mode:Locks.Exclusive with
  | `Conflict os ->
    Alcotest.(check (list int)) "two holders, newest first" [ 2; 1 ]
      (List.map (fun o -> o.Locks.txn) os)
  | `Granted -> Alcotest.fail "x over two sharers must conflict"

let exclusive_conflicts () =
  let l = Locks.create () in
  ignore (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Exclusive);
  (match Locks.try_acquire l 1 ~owner:(owner 2) ~mode:Locks.Shared with
   | `Conflict [ o ] -> Alcotest.(check int) "conflicting owner" 1 o.Locks.txn
   | `Conflict _ | `Granted -> Alcotest.fail "expected single conflict");
  (match Locks.try_acquire l 1 ~owner:(owner 2) ~mode:Locks.Exclusive with
   | `Conflict _ -> ()
   | `Granted -> Alcotest.fail "x-x must conflict")

let reentrant_and_upgrade () =
  let l = Locks.create () in
  ignore (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Shared);
  Alcotest.(check bool) "reentrant shared" true
    (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Shared = `Granted);
  Alcotest.(check bool) "sole-holder upgrade" true
    (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Exclusive = `Granted);
  (* once exclusive, re-acquiring shared must not downgrade *)
  ignore (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Shared);
  (match Locks.try_acquire l 1 ~owner:(owner 2) ~mode:Locks.Shared with
   | `Conflict _ -> ()
   | `Granted -> Alcotest.fail "exclusive must persist across re-acquire")

let upgrade_blocked_by_other_sharer () =
  let l = Locks.create () in
  ignore (Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Shared);
  ignore (Locks.try_acquire l 1 ~owner:(owner 2) ~mode:Locks.Shared);
  match Locks.try_acquire l 1 ~owner:(owner 1) ~mode:Locks.Exclusive with
  | `Conflict _ -> ()
  | `Granted -> Alcotest.fail "upgrade with co-sharer must conflict"

(* A key's entry goes when its last holder releases: acquiring and
   releasing 10k distinct keys leaves the table no larger than one
   cycle did. *)
let entries_freed () =
  let l = Locks.create () in
  let cycle key =
    ignore (Locks.try_acquire l key ~owner:(owner key) ~mode:Locks.Exclusive);
    Locks.release l key ~txn:key
  in
  cycle 0;
  (* ncc-lint: allow R4 — measures the lock table's reachable heap; nothing is cast *)
  let words () = Obj.reachable_words (Obj.repr l) in
  let before = words () in
  for key = 1 to 10_000 do
    cycle key
  done;
  Alcotest.(check int) "reachable words flat" before (words ())

(* Random scripts never leave a key both held exclusively and shared by
   different transactions. The test keeps the holders the table granted,
   newest first: a grant must leave them compatible, and a conflict must
   name exactly the other holders, in that order. *)
let no_incompatible_holders =
  QCheck.Test.make ~name:"holders always compatible" ~count:300
    QCheck.(list (pair (1 -- 5) (pair bool bool)))
    (fun script ->
      let l = Locks.create () in
      let compatible hs =
        match List.filter (fun (_, m) -> m = Locks.Exclusive) hs with
        | [] -> true
        | [ (t, _) ] -> List.for_all (fun (t', _) -> t' = t) hs
        | _ -> false
      in
      let step held (txn, (excl, rel)) =
        let others = List.filter (fun (t, _) -> t <> txn) held in
        if rel then begin
          Locks.release l 1 ~txn;
          Some others
        end
        else
          let mode = if excl then Locks.Exclusive else Locks.Shared in
          match Locks.try_acquire l 1 ~owner:(owner txn) ~mode with
          | `Granted ->
            let mode = if List.mem (txn, Locks.Exclusive) held then Locks.Exclusive else mode in
            let held = (txn, mode) :: others in
            if compatible held then Some held else None
          | `Conflict os ->
            if List.map (fun o -> o.Locks.txn) os = List.map fst others
               && not (compatible ((txn, mode) :: others))
            then Some held
            else None
      in
      Option.is_some
        (List.fold_left (fun held s -> Option.bind held (fun h -> step h s)) (Some []) script))

let suite =
  [
    Alcotest.test_case "shared compatible" `Quick shared_compatible;
    Alcotest.test_case "exclusive conflicts" `Quick exclusive_conflicts;
    Alcotest.test_case "reentrant + upgrade" `Quick reentrant_and_upgrade;
    Alcotest.test_case "upgrade blocked by co-sharer" `Quick upgrade_blocked_by_other_sharer;
    Alcotest.test_case "entries freed with the last holder" `Quick entries_freed;
  ]
  @ [ QCheck_alcotest.to_alcotest no_incompatible_holders ]
