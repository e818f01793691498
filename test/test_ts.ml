(* Timestamp ordering properties (Kernel.Ts). *)

open Kernel

let ts_gen =
  QCheck.Gen.(
    map2 (fun time cid -> Ts.make ~time ~cid) (int_bound 1_000_000) (int_bound 64))

let arb_ts = QCheck.make ~print:Ts.to_string ts_gen

let test_total_order =
  QCheck.Test.make ~name:"compare is a total order" ~count:500
    (QCheck.triple arb_ts arb_ts arb_ts) (fun (a, b, c) ->
      let open Ts in
      (* antisymmetry and transitivity on this sample *)
      (not (a < b && b < a))
      && (not (a < b && b < c) || a < c)
      && (compare a b = 0) = (equal a b))

let test_tie_break =
  QCheck.Test.make ~name:"ties broken by client id" ~count:200
    (QCheck.pair QCheck.small_nat QCheck.small_nat) (fun (t, c) ->
      let a = Ts.make ~time:t ~cid:c and b = Ts.make ~time:t ~cid:(c + 1) in
      Ts.(a < b))

let test_succ =
  QCheck.Test.make ~name:"succ is the least larger same-cid timestamp" ~count:200 arb_ts
    (fun a ->
      let s = Ts.succ a in
      Ts.(a < s) && Ts.time s = Ts.time a + 1 && Ts.cid s = Ts.cid a)

let test_minmax =
  QCheck.Test.make ~name:"max/min agree with compare" ~count:500
    (QCheck.pair arb_ts arb_ts) (fun (a, b) ->
      Ts.(max a b >= a) && Ts.(max a b >= b) && Ts.(min a b <= a) && Ts.(min a b <= b))

(* The packed int order is the lexicographic (time, cid) order, over
   negative and extreme times and the whole client-id field. *)
let time_gen =
  QCheck.Gen.(
    oneof
      [
        int_range Ts.min_time Ts.max_time;
        int_range (-1_000) 1_000;
        oneofl [ Ts.min_time; Ts.min_time + 1; -1; 0; 1; Ts.max_time - 1; Ts.max_time ];
      ])

let packed_gen =
  QCheck.Gen.(pair time_gen (oneof [ int_bound 64; int_bound Ts.max_cid; return Ts.max_cid ]))

let test_packed_order =
  QCheck.Test.make ~name:"packed order is lexicographic (time, cid) order" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(pair (pair int int) (pair int int))
       (QCheck.Gen.pair packed_gen packed_gen))
    (fun ((ta, ca), (tb, cb)) ->
      let a = Ts.make ~time:ta ~cid:ca and b = Ts.make ~time:tb ~cid:cb in
      let lex = match Int.compare ta tb with 0 -> Int.compare ca cb | c -> c in
      Int.compare (Ts.compare a b) 0 = Int.compare lex 0
      && Ts.time a = ta && Ts.cid a = ca)

let unit_tests =
  [
    Alcotest.test_case "zero below everything" `Quick (fun () ->
        Alcotest.(check bool) "zero < infinity" true Ts.(zero < infinity);
        Alcotest.(check bool)
          "zero <= make 0 0" true
          Ts.(zero <= make ~time:0 ~cid:0));
    Alcotest.test_case "to_string round shape" `Quick (fun () ->
        Alcotest.(check string) "fmt" "42.7" (Ts.to_string (Ts.make ~time:42 ~cid:7));
        Alcotest.(check string) "negative time" "-3.5" (Ts.to_string (Ts.make ~time:(-3) ~cid:5)));
    Alcotest.test_case "make refuses fields outside the packing" `Quick (fun () ->
        let refused time cid =
          match Ts.make ~time ~cid with _ -> false | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "cid above max_cid" true (refused 0 (Ts.max_cid + 1));
        Alcotest.(check bool) "negative cid" true (refused 0 (-1));
        Alcotest.(check bool) "time above max_time" true (refused (Ts.max_time + 1) 0);
        Alcotest.(check bool) "time below min_time" true (refused (Ts.min_time - 1) 0));
  ]

let suite =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ test_total_order; test_tie_break; test_succ; test_minmax; test_packed_order ]
