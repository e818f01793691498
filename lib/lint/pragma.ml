(* Waiver pragmas: structured comments that exempt one site from one or
   more rules, with a mandatory reason. The pragma is an ordinary OCaml
   comment, on or directly above the offending line, whose body reads

     ncc-lint: allow <RULES> — <reason>

   The separator between the rule list and the reason may be an
   em-dash, a double dash or a single dash; the reason must be
   non-empty — a reasonless waiver is itself an error-severity finding.
   Several rules can be waived at once: [allow R2,R4 — reason]. A
   pragma only counts when a comment opener appears before it on the
   same line, so string literals mentioning the keyword are inert. *)

type t = {
  line : int;  (* 1-based line the pragma appears on *)
  rules : string list;
  reason : string;
}

type parsed =
  | Pragma of t
  | Malformed of { line : int; msg : string }

let keyword = "ncc-lint:"

(* First index >= [from] at which [sub] (non-empty) occurs in [s]. The
   search anchors on [sub]'s last character: for the pragma keyword,
   ':' is several times rarer in OCaml source than 'n'. *)
let find_from s from sub =
  let m = String.length sub in
  let rec matches i j = j = m - 1 || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go k =
    match String.index_from_opt s k sub.[m - 1] with
    | Some k ->
      let i = k - m + 1 in
      if matches i 0 then Some i else go (k + 1)
    | None -> None
  in
  if from + m > String.length s then None else go (from + m - 1)

let find_sub s sub = find_from s 0 sub

let trim_comment_close s =
  match find_sub s "*)" with
  | Some i -> String.sub s 0 i
  | None -> s

(* Split "R3, R5"-style rule lists. *)
let split_rules s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* The reason separator: em-dash (U+2014), "--" or "-". *)
let split_on_dash s =
  let n = String.length s in
  let rec go i =
    if i >= n then None
    else if i + 3 <= n && String.sub s i 3 = "\xe2\x80\x94" then
      Some (String.sub s 0 i, String.sub s (i + 3) (n - i - 3))
    else if s.[i] = '-' then begin
      let j = if i + 1 < n && s.[i + 1] = '-' then i + 2 else i + 1 in
      Some (String.sub s 0 i, String.sub s j (n - j))
    end
    else go (i + 1)
  in
  go 0

let in_comment s i =
  match find_sub (String.sub s 0 i) "(*" with Some _ -> true | None -> false

let parse_line ~line s =
  match find_sub s keyword with
  | None -> None
  | Some i when not (in_comment s i) -> None
  | Some i ->
    let rest =
      String.sub s (i + String.length keyword)
        (String.length s - i - String.length keyword)
      |> trim_comment_close |> String.trim
    in
    let malformed msg = Some (Malformed { line; msg }) in
    (match String.index_opt rest ' ' with
     | _ when rest = "" -> malformed "empty pragma"
     | None -> malformed (Printf.sprintf "unrecognized pragma %S" rest)
     | Some sp ->
       let verb = String.sub rest 0 sp in
       let body =
         String.sub rest sp (String.length rest - sp) |> String.trim
       in
       if verb <> "allow" then
         malformed (Printf.sprintf "unknown pragma verb %S (expected allow)" verb)
       else
         (match split_on_dash body with
          | None ->
            malformed "waiver needs a reason: allow <rules> \xe2\x80\x94 <reason>"
          | Some (rules_s, reason) ->
            let rules = split_rules rules_s in
            let reason = String.trim reason in
            let unknown =
              List.filter (fun r -> not (List.mem r Rules.known_ids)) rules
            in
            if rules = [] then malformed "waiver names no rules"
            else if unknown <> [] then
              malformed
                (Printf.sprintf "waiver names unknown rule(s) %s"
                   (String.concat ", " unknown))
            else if reason = "" then
              malformed "waiver reason must be non-empty"
            else Some (Pragma { line; rules; reason })))

(* All pragmas (and malformed pragma attempts) in a source buffer. Only
   the lines holding the keyword are cut out and parsed. *)
let scan source =
  let n = String.length source in
  let count_lines a b =
    let c = ref 0 in
    for i = a to b - 1 do
      if source.[i] = '\n' then incr c
    done;
    !c
  in
  (* [line] is the number of the line starting at [start] *)
  let rec go ~line ~start acc =
    match find_from source start keyword with
    | None -> List.rev acc
    | Some i ->
      let bol =
        match String.rindex_from_opt source i '\n' with
        | Some j when j >= start -> j + 1
        | _ -> start
      in
      let eol = Option.value (String.index_from_opt source i '\n') ~default:n in
      let line = line + count_lines start bol in
      let acc =
        match parse_line ~line (String.sub source bol (eol - bol)) with
        | Some p -> p :: acc
        | None -> acc
      in
      if eol >= n then List.rev acc else go ~line:(line + 1) ~start:(eol + 1) acc
  in
  go ~line:1 ~start:0 []

(* Does a pragma on [p.line] cover a finding on [line]? Same line
   (trailing comment) or the line below (standalone comment above). *)
let covers p ~rule ~line =
  (line = p.line || line = p.line + 1) && List.mem rule p.rules
