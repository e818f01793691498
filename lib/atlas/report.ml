(* Phase-diagram emission: a schema-versioned JSON document (via
   Obs.Jsonw, so printing is deterministic and golden-diffable) and an
   aligned-text rendering with winner matrices, per-point summaries,
   crossover frontiers and the violation roll.

   The JSON must stay byte-identical between --jobs N and sequential
   runs of the same sweep — everything here is a pure function of the
   sweep/diagram values, with no timestamps or host data. *)

module J = Obs.Jsonw

(* Bumped on any breaking change to the document layout below; CI and
   the golden test pin it. *)
let schema_version = 1

(* --- JSON -------------------------------------------------------------- *)

let checked (s : Driver.sweep) =
  match s.Driver.check with Harness.Runner.No_check -> false | _ -> true

let coords_json coords = J.Obj (List.map (fun (k, v) -> (k, J.Str v)) coords)

let cell_json (c : Driver.cell_result) =
  let r = c.Driver.result in
  J.Obj
    [
      ("protocol", J.Str c.Driver.cell.Driver.protocol);
      ("seed", J.Int c.Driver.cell.Driver.seed);
      ("coords", coords_json c.Driver.cell.Driver.coords);
      ("throughput_tps", J.Float r.Harness.Runner.throughput);
      ("p50_ms", J.Float (r.Harness.Runner.p50 *. 1e3));
      ("p99_ms", J.Float (r.Harness.Runner.p99 *. 1e3));
      ("abort_rate", J.Float c.Driver.abort_rate);
      ("committed", J.Int r.Harness.Runner.committed);
      ("gave_up", J.Int r.Harness.Runner.gave_up);
      ("check", J.Str r.Harness.Runner.check_result);
      ("ok", J.Bool c.Driver.ok);
    ]

let agg_json (a : Diagram.agg) =
  J.Obj
    [
      ("protocol", J.Str a.Diagram.a_protocol);
      ("throughput_tps", J.Float a.Diagram.a_throughput);
      ("p50_ms", J.Float (a.Diagram.a_p50 *. 1e3));
      ("p99_ms", J.Float (a.Diagram.a_p99 *. 1e3));
      ("abort_rate", J.Float a.Diagram.a_abort_rate);
      ("violations", J.Int a.Diagram.a_violations);
    ]

let summary_json (p : Diagram.point_summary) =
  J.Obj
    [
      ("coords", coords_json p.Diagram.coords);
      ("winner", J.Str p.Diagram.winner);
      ( "ncc_delta_pct",
        match p.Diagram.ncc_delta with
        | Some d -> J.Float (100.0 *. d)
        | None -> J.Null );
      ("violations", J.Int p.Diagram.violations);
      ("protocols", J.List (List.map agg_json p.Diagram.rows));
    ]

let frontier_json (f : Diagram.frontier) =
  J.Obj
    [
      ("axis", J.Str f.Diagram.f_axis);
      ("from", coords_json f.Diagram.f_from);
      ("to", coords_json f.Diagram.f_to);
      ("from_winner", J.Str f.Diagram.f_from_winner);
      ("to_winner", J.Str f.Diagram.f_to_winner);
    ]

let json (s : Driver.sweep) (d : Diagram.t) : string =
  J.to_string
    (J.Obj
       [
         ("version", J.Int schema_version);
         ("kind", J.Str "ncc-atlas-phase-diagram");
         ("scenario", J.Str s.Driver.scenario);
         ("quick", J.Bool s.Driver.quick);
         ("checked", J.Bool (checked s));
         ( "axes",
           J.List
             (List.map
                (fun (n, vs) ->
                  J.Obj
                    [
                      ("name", J.Str n);
                      ("values", J.List (List.map (fun v -> J.Str v) vs));
                    ])
                s.Driver.axes) );
         ("protocols", J.List (List.map (fun p -> J.Str p) s.Driver.protocols));
         ("seeds", J.List (List.map (fun x -> J.Int x) s.Driver.seeds));
         ("cells", J.List (List.map cell_json s.Driver.cells));
         ("phase", J.List (List.map summary_json d.Diagram.summaries));
         ("frontiers", J.List (List.map frontier_json d.Diagram.frontiers));
         ("total_cells", J.Int d.Diagram.total_cells);
         ("total_violations", J.Int d.Diagram.total_violations);
       ])

(* --- aligned text ------------------------------------------------------ *)

let coords_str coords =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) coords)

let pad w s =
  let n = String.length s in
  if n >= w then s else String.make (w - n) ' ' ^ s

let pad_left w s =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let max_width init l = List.fold_left (fun m s -> max m (String.length s)) init l

(* All label combinations of [axes] in row-major order (the same fold
   as Knob.expand, over labels). *)
let combos axes =
  List.fold_left
    (fun acc (name, labels) ->
      List.concat_map
        (fun c -> List.map (fun l -> c @ [ (name, l) ]) labels)
        acc)
    [ [] ] axes

let find_summary (d : Diagram.t) coords =
  List.find_opt
    (fun (p : Diagram.point_summary) -> Diagram.coords_equal p.Diagram.coords coords)
    d.Diagram.summaries

(* Winner matrices: first axis down, second across, one block per
   combination of the remaining axes. Needs >= 2 axes. *)
let winner_matrices buf (s : Driver.sweep) (d : Diagram.t) =
  match s.Driver.axes with
  | (a0, rows) :: (a1, cols) :: rest ->
    let wcell =
      max_width (String.length "winner")
        (List.map
           (fun (p : Diagram.point_summary) -> p.Diagram.winner)
           d.Diagram.summaries)
    in
    let wcell = max_width wcell cols in
    let wrow = max_width (String.length (a0 ^ " \\ " ^ a1)) rows in
    List.iter
      (fun slice ->
        let where =
          match slice with
          | [] -> ""
          | _ -> Printf.sprintf " [%s]" (coords_str slice)
        in
        Buffer.add_string buf
          (Printf.sprintf "-- winners (rows: %s, cols: %s)%s --\n" a0 a1 where);
        Buffer.add_string buf (pad_left wrow (a0 ^ " \\ " ^ a1));
        List.iter
          (fun c -> Buffer.add_string buf ("  " ^ pad wcell c))
          cols;
        Buffer.add_char buf '\n';
        List.iter
          (fun r ->
            Buffer.add_string buf (pad_left wrow r);
            List.iter
              (fun c ->
                let coords = ((a0, r) :: (a1, c) :: slice) in
                let w =
                  match find_summary d coords with
                  | Some p ->
                    if p.Diagram.violations > 0 then p.Diagram.winner ^ "!"
                    else p.Diagram.winner
                  | None -> "?"
                in
                Buffer.add_string buf ("  " ^ pad wcell w))
              cols;
            Buffer.add_char buf '\n')
          rows;
        Buffer.add_char buf '\n')
      (combos rest)
  | _ -> ()

let text (s : Driver.sweep) (d : Diagram.t) : string =
  let buf = Buffer.create 4096 in
  let n_points = List.length s.Driver.points in
  Buffer.add_string buf
    (Printf.sprintf "== atlas '%s'%s ==\n" s.Driver.scenario
       (if s.Driver.quick then " (quick)" else ""));
  Buffer.add_string buf
    (Printf.sprintf
       "%d cells = %d protocols x %d points x %d seeds; check: %s; violations: \
        %d\n"
       d.Diagram.total_cells
       (List.length s.Driver.protocols)
       n_points
       (List.length s.Driver.seeds)
       (match s.Driver.check with
        | Streaming -> "streaming" | Serializable -> "serializable" | No_check -> "off")
       d.Diagram.total_violations);
  List.iter
    (fun (n, vs) ->
      Buffer.add_string buf
        (Printf.sprintf "axis %s: {%s}\n" n (String.concat ", " vs)))
    s.Driver.axes;
  Buffer.add_char buf '\n';
  winner_matrices buf s d;
  (* per-point summary *)
  let wpt =
    max_width (String.length "point")
      (List.map
         (fun (p : Diagram.point_summary) -> coords_str p.Diagram.coords)
         d.Diagram.summaries)
  in
  let wwin =
    max_width (String.length "winner") s.Driver.protocols
  in
  Buffer.add_string buf "-- per-point summary --\n";
  Buffer.add_string buf
    (Printf.sprintf "%s  %s  %12s  %4s\n" (pad_left wpt "point")
       (pad_left wwin "winner") "NCC vs best" "viol");
  List.iter
    (fun (p : Diagram.point_summary) ->
      let delta =
        match p.Diagram.ncc_delta with
        | Some dd -> Printf.sprintf "%+.1f%%" (100.0 *. dd)
        | None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s  %s  %12s  %4d\n"
           (pad_left wpt (coords_str p.Diagram.coords))
           (pad_left wwin p.Diagram.winner)
           delta p.Diagram.violations))
    d.Diagram.summaries;
  Buffer.add_char buf '\n';
  (* per-point throughput matrix, protocols across *)
  Buffer.add_string buf "-- throughput (mean tx/s over seeds) --\n";
  let wp =
    List.map (fun p -> max (String.length p) 7) s.Driver.protocols
  in
  Buffer.add_string buf (pad_left wpt "point");
  List.iter2
    (fun p w -> Buffer.add_string buf ("  " ^ pad w p))
    s.Driver.protocols wp;
  Buffer.add_char buf '\n';
  List.iter
    (fun (p : Diagram.point_summary) ->
      Buffer.add_string buf (pad_left wpt (coords_str p.Diagram.coords));
      List.iter2
        (fun (a : Diagram.agg) w ->
          Buffer.add_string buf
            ("  " ^ pad w (Printf.sprintf "%.0f" a.Diagram.a_throughput)))
        p.Diagram.rows wp;
      Buffer.add_char buf '\n')
    d.Diagram.summaries;
  Buffer.add_char buf '\n';
  (* frontiers *)
  Buffer.add_string buf "-- crossover frontiers --\n";
  (match d.Diagram.frontiers with
   | [] -> Buffer.add_string buf "none\n"
   | frontiers ->
    List.iter
      (fun (f : Diagram.frontier) ->
        let v ax coords =
          match List.assoc_opt ax coords with Some x -> x | None -> "?"
        in
        let rest =
          List.filter
            (fun (k, _) -> not (String.equal k f.Diagram.f_axis))
            f.Diagram.f_from
        in
        let where =
          match rest with
          | [] -> ""
          | _ -> Printf.sprintf " at [%s]" (coords_str rest)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s: %s -> %s%s: %s -> %s\n" f.Diagram.f_axis
             (v f.Diagram.f_axis f.Diagram.f_from)
             (v f.Diagram.f_axis f.Diagram.f_to)
             where f.Diagram.f_from_winner f.Diagram.f_to_winner))
      frontiers);
  Buffer.add_char buf '\n';
  (* violations *)
  Buffer.add_string buf "-- checker violations --\n";
  (match
     List.filter (fun (c : Driver.cell_result) -> not c.Driver.ok) s.Driver.cells
   with
   | [] ->
     Buffer.add_string buf
       (if checked s then "none\n" else "(checking off)\n")
   | bad ->
     List.iter
       (fun (c : Driver.cell_result) ->
         Buffer.add_string buf
           (Printf.sprintf "%s seed=%d [%s]: %s\n" c.Driver.cell.Driver.protocol
              c.Driver.cell.Driver.seed
              (coords_str c.Driver.cell.Driver.coords)
              c.Driver.result.Harness.Runner.check_result))
       bad);
  Buffer.contents buf
