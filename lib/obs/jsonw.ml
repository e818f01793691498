(* A minimal JSON document builder. The exporters (Chrome trace_event,
   per-run metrics, BENCH_*.json) need to *write* JSON, never to parse
   it, and the repo's no-new-dependencies rule keeps yojson out — so
   this is the whole surface: a value type and a deterministic printer.

   Determinism matters: golden-file tests compare exporter output
   byte-for-byte, so floats print through one fixed format ("%.12g",
   integral values as integers) and object fields print in the order
   the caller supplies (callers sort where ordering is derived from a
   hash table). NaN and infinities have no JSON spelling and become
   [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec add_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | Str s ->
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add_json b v)
      l;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        add_escaped b k;
        Buffer.add_string b "\":";
        add_json b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  add_json b v;
  Buffer.contents b
