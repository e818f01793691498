(* Path canonicalisation shared by every lint rule.

   Dune mangles wrapped-library modules ("Baselines__D2pl") and
   executable modules ("Dune__exe__Ncc_lint"); these helpers undo both
   so one canonical spelling ("Baselines.D2pl") covers every way a
   unit can be named in a Path.t, and normalise the file names the
   compiler recorded inside _build back to repo-relative paths. Every
   rule resolves identifiers through this module (via Graph), so a
   location has exactly one abstract name no matter which rule
   observed it. *)

let split_mangled s =
  let out = ref [] in
  let b = Buffer.create 16 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      out := Buffer.contents b :: !out;
      Buffer.clear b;
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  out := Buffer.contents b :: !out;
  List.filter (fun x -> x <> "") (List.rev !out)

let canon_head name =
  match split_mangled name with
  | "Dune" :: "exe" :: rest -> rest
  | parts -> parts

(* Canonical components of a path, ignoring any per-unit context
   (enough for suffix matching of type and function names). *)
let rec plain_parts (p : Path.t) =
  match p with
  | Path.Pident id -> canon_head (Ident.name id)
  | Path.Pdot (p, s) -> plain_parts p @ [ s ]
  | Path.Papply (a, _) -> plain_parts a
  | Path.Pextra_ty (p, _) -> plain_parts p

let plain_path p = String.concat "." (plain_parts p)

let strip_stdlib s =
  if String.length s > 7 && String.sub s 0 7 = "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

(* Whole-component suffix match: "Ts.t" matches "Kernel.Ts.t" but not
   "Cuts.t"; "Clock.read" does not match "Sim.Clock.read_ns". *)
let has_suffix ~suffix s =
  s = suffix
  ||
  let ls = String.length s and lf = String.length suffix in
  ls > lf + 1
  && String.sub s (ls - lf) lf = suffix
  && s.[ls - lf - 1] = '.'

let has_prefix ~prefix path =
  path = prefix
  || String.length path > String.length prefix
     && String.sub path 0 (String.length prefix + 1) = prefix ^ "."

let norm_fname f =
  let f =
    if String.length f >= 2 && String.sub f 0 2 = "./" then
      String.sub f 2 (String.length f - 2)
    else f
  in
  (* "_build/<context>/lib/x.ml" -> "lib/x.ml" *)
  let parts = String.split_on_char '/' f in
  let rec after_build = function
    | "_build" :: _ :: rest -> Some rest
    | _ :: tl -> after_build tl
    | [] -> None
  in
  match after_build parts with
  | Some rest when rest <> [] -> String.concat "/" rest
  | _ -> f

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
