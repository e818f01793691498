(* Phase-diagram reduction: fold the sweep's cell table into one
   summary per knob point (per-protocol seed means, the winner, the
   NCC-vs-best-baseline delta, violation counts) plus the crossover
   frontiers — adjacent grid points whose winners differ. *)

(* --- hot reduce loops -------------------------------------------------- *)

(* The per-cell inner loops of the reducer, hot entries of the
   R16-R19 allocation plane: on a wide grid these run once per (point
   x protocol) over per-seed arrays. Written as top-level tail
   recursions — no closure, ref or boxed-float allocation. *)

let[@ncc.hot] rec sum_from (xs : float array) i acc =
  if i >= Array.length xs then acc else sum_from xs (i + 1) (acc +. xs.(i))

let[@ncc.hot] mean (xs : float array) =
  if Array.length xs = 0 then 0.0
  else sum_from xs 0 0.0 /. float_of_int (Array.length xs)

let[@ncc.hot] rec winner_from (xs : float array) i best =
  if i >= Array.length xs then best
  else winner_from xs (i + 1) (if xs.(i) > xs.(best) then i else best)

(* Index of the max element; ties keep the earliest (= scenario
   protocol order), making the winner deterministic. *)
let[@ncc.hot] winner_index (xs : float array) =
  if Array.length xs = 0 then 0 else winner_from xs 1 0

(* --- reduction --------------------------------------------------------- *)

type agg = {
  a_protocol : string;
  a_throughput : float;  (* mean over seeds *)
  a_p50 : float;
  a_p99 : float;
  a_abort_rate : float;
  a_violations : int;    (* seeds whose cell reported a violation *)
}

type point_summary = {
  coords : (string * string) list;
  rows : agg list;           (* scenario protocol order *)
  winner : string;           (* max mean throughput *)
  ncc_delta : float option;
      (* (NCC - best baseline) / best baseline, when both exist *)
  violations : int;          (* across all protocols and seeds here *)
}

type frontier = {
  f_axis : string;
  f_from : (string * string) list;
  f_to : (string * string) list;
  f_from_winner : string;
  f_to_winner : string;
}

type t = {
  summaries : point_summary list;  (* row-major grid order *)
  frontiers : frontier list;
  total_cells : int;
  total_violations : int;
}

let coords_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a b

let summarize_point (s : Driver.sweep) coords =
  let rows =
    List.map
      (fun proto ->
        let cs =
          List.filter
            (fun (c : Driver.cell_result) ->
              String.equal c.Driver.cell.Driver.protocol proto
              && coords_equal c.Driver.cell.Driver.coords coords)
            s.Driver.cells
        in
        let arr f = Array.of_list (List.map f cs) in
        {
          a_protocol = proto;
          a_throughput = mean (arr (fun c -> c.Driver.throughput));
          a_p50 = mean (arr (fun c -> c.Driver.p50));
          a_p99 = mean (arr (fun c -> c.Driver.p99));
          a_abort_rate = mean (arr (fun c -> c.Driver.abort_rate));
          a_violations =
            List.length (List.filter (fun c -> not c.Driver.ok) cs);
        })
      s.Driver.protocols
  in
  let tputs = Array.of_list (List.map (fun a -> a.a_throughput) rows) in
  let winner =
    match List.nth_opt rows (winner_index tputs) with
    | Some a -> a.a_protocol
    | None -> ""
  in
  let ncc = List.find_opt (fun a -> String.equal a.a_protocol "NCC") rows in
  let baselines =
    List.filter (fun a -> not (Protocols.is_ncc_family a.a_protocol)) rows
  in
  let ncc_delta =
    match (ncc, baselines) with
    | Some n, _ :: _ ->
      let bt = Array.of_list (List.map (fun a -> a.a_throughput) baselines) in
      let best = bt.(winner_index bt) in
      if best > 0.0 then Some ((n.a_throughput -. best) /. best) else None
    | _ -> None
  in
  let violations = List.fold_left (fun acc a -> acc + a.a_violations) 0 rows in
  { coords; rows; winner; ncc_delta; violations }

(* v1 and v2 are consecutive values of [axis] (in sweep order)? *)
let consecutive axes axis v1 v2 =
  match List.assoc_opt axis axes with
  | None -> false
  | Some vals ->
    let rec go = function
      | a :: (b :: _ as rest) ->
        (String.equal a v1 && String.equal b v2) || go rest
      | _ -> false
    in
    go vals

(* a and b name grid-adjacent points along [axis]: equal everywhere
   else, consecutive values on [axis]. *)
let adjacent_along axes axis a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k1, v1) (k2, v2) ->
         String.equal k1 k2 && (String.equal v1 v2 || String.equal k1 axis))
       a b
  &&
  match (List.assoc_opt axis a, List.assoc_opt axis b) with
  | Some v1, Some v2 ->
    (not (String.equal v1 v2)) && consecutive axes axis v1 v2
  | _ -> false

let reduce (s : Driver.sweep) : t =
  let summaries = List.map (summarize_point s) s.Driver.points in
  let frontiers =
    List.concat_map
      (fun (axis, (_ : string list)) ->
        List.concat_map
          (fun s1 ->
            List.filter_map
              (fun s2 ->
                if
                  adjacent_along s.Driver.axes axis s1.coords s2.coords
                  && not (String.equal s1.winner s2.winner)
                then
                  Some
                    {
                      f_axis = axis;
                      f_from = s1.coords;
                      f_to = s2.coords;
                      f_from_winner = s1.winner;
                      f_to_winner = s2.winner;
                    }
                else None)
              summaries)
          summaries)
      s.Driver.axes
  in
  let total_violations =
    List.fold_left
      (fun acc (c : Driver.cell_result) -> if c.Driver.ok then acc else acc + 1)
      0 s.Driver.cells
  in
  {
    summaries;
    frontiers;
    total_cells = List.length s.Driver.cells;
    total_violations;
  }
