(* Exporters over a Sim.Trace capture: Chrome trace_event JSON (open
   in Perfetto / chrome://tracing), a compact text timeline, and a
   structural validator shared by the CLI and the test suite. The
   capture's flat events get their names here, one span per event
   (track names and the message-plane faults draw none).

   Chrome mapping (docs/observability.md): one process (pid 0), one
   thread per node (tid = node id, named via thread_name metadata);
   complete spans become "X", async begin/end "b"/"e" keyed by
   (cat, id), instants thread-scoped "i"; timestamps are microseconds
   of simulated time. Spans are stable-sorted by timestamp (ties keep
   emission order) and floats print in Jsonw's fixed format, so
   golden-file tests can compare the bytes. *)

type ph = Complete | Async_b | Async_e | Instant

type span = {
  ph : ph;
  name : string;
  cat : string;
  node : int;
  id : int;  (* async correlation id within [cat] *)
  ts : float;
  dur : float;  (* Complete spans only *)
  args : (string * string) list;
}

let us t = t *. 1e6

let track_name (node, role) =
  if role = Sim.Trace.checker_track then "checker"
  else
    Printf.sprintf "%s %d"
      (if role = Sim.Trace.server_track then "server"
       else if role = Sim.Trace.replica_track then "replica"
       else "client")
      node

(* Named tracks as (node, role), by node; a node named twice (the
   checker) keeps one entry. *)
let tracks (c : Sim.Trace.capture) =
  let named acc (e : Sim.Trace.event) =
    match e.ev_kind with Track -> (e.ev_src, e.ev_code) :: acc | _ -> acc
  in
  List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) (Array.fold_left named [] c.events)

let span_of (e : Sim.Trace.event) =
  let sp ?(id = -1) ?(dur = 0.0) ?(args = []) ?(ts = e.ev_time) ph ~node cat name =
    Some { ph; name; cat; node; id; ts; dur; args }
  in
  let n = string_of_int in
  let txn = e.ev_id and client = e.ev_src in
  match e.ev_kind with
  | Send | Duplicated ->
    sp Async_b ~node:e.ev_src "net" "msg" ~id:e.ev_id ~args:[ ("dst", n e.ev_dst) ]
  | Arrive -> sp Async_e ~node:e.ev_dst "net" "msg" ~id:e.ev_id
  | Lost_down -> sp Instant ~node:e.ev_dst "net" "lost" ~args:[ ("src", n e.ev_src) ]
  | Queued ->
    sp Complete ~node:e.ev_dst "net" "queued" ~ts:e.ev_start ~dur:e.ev_dur
      ~args:[ ("src", n e.ev_src) ]
  | Handle ->
    let name =
      match Phase.of_code e.ev_code with Some p -> Phase.to_string p | None -> "handle"
    in
    sp Complete ~node:e.ev_dst "rpc" name ~ts:e.ev_start ~dur:e.ev_dur
      ~args:[ ("src", n e.ev_src) ]
  | Txn_begin -> sp Async_b ~node:client "txn" "txn" ~id:txn
  | Attempt_begin -> sp Async_b ~node:client "txn" "attempt" ~id:txn
  | Attempt_end ->
    let status =
      if e.ev_code < 0 then "committed"
      else Kernel.Outcome.(reason_to_string (reason_of_code e.ev_code))
    in
    sp Async_e ~node:client "txn" "attempt" ~id:txn ~args:[ ("status", status) ]
  | Txn_end ->
    let arg = if e.ev_code < 0 then ("status", "gave_up") else ("attempts", n e.ev_code) in
    sp Async_e ~node:client "txn" "txn" ~id:txn ~args:[ arg ]
  | Gave_up -> sp Instant ~node:client "txn" "gave_up" ~args:[ ("txn", n txn) ]
  | Backoff ->
    sp Complete ~node:client "txn" "backoff" ~ts:e.ev_start ~dur:e.ev_dur
      ~args:[ ("txn", n txn) ]
  | Shed -> sp Instant ~node:client "txn" (if e.ev_code = 1 then "shed_hot_key" else "shed")
  | Epoch ->
    sp Instant ~node:e.ev_src "checker" "epoch"
      ~args:[ ("live", n e.ev_id); ("retired", n e.ev_code) ]
  | Finalize ->
    sp Instant ~node:e.ev_src "checker" "finalize"
      ~args:
        [ ("commits", n e.ev_id); ("live_high_water", n e.ev_dst); ("retired", n e.ev_code);
          ("verdict", if e.ev_x > 0.0 then "violation" else "ok") ]
  | Suppressed | Partitioned | Dropped | Crash | Restart | Track -> None

(* Spans stable-sorted by timestamp, emission order breaking ties. *)
let sorted_spans (c : Sim.Trace.capture) =
  let spans = List.filter_map span_of (Array.to_list c.events) in
  List.stable_sort (fun a b -> Float.compare a.ts b.ts) spans

let args_json args =
  Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Str v)) args)

let span_json e =
  let base =
    [
      ("name", Jsonw.Str e.name);
      ("cat", Jsonw.Str e.cat);
      ("pid", Jsonw.Int 0);
      ("tid", Jsonw.Int e.node);
      ("ts", Jsonw.Float (us e.ts));
    ]
  in
  let tail =
    match e.ph with
    | Complete -> [ ("ph", Jsonw.Str "X"); ("dur", Jsonw.Float (us e.dur)) ]
    | Async_b -> [ ("ph", Jsonw.Str "b"); ("id", Jsonw.Int e.id) ]
    | Async_e -> [ ("ph", Jsonw.Str "e"); ("id", Jsonw.Int e.id) ]
    | Instant -> [ ("ph", Jsonw.Str "i"); ("s", Jsonw.Str "t") ]
  in
  let args = if e.args = [] then [] else [ ("args", args_json e.args) ] in
  Jsonw.Obj (base @ tail @ args)

let metadata (c : Sim.Trace.capture) =
  let meta kind tid name =
    Jsonw.Obj
      ([ ("name", Jsonw.Str kind); ("ph", Jsonw.Str "M"); ("pid", Jsonw.Int 0) ]
      @ (match tid with Some t -> [ ("tid", Jsonw.Int t) ] | None -> [])
      @ [ ("args", Jsonw.Obj [ ("name", Jsonw.Str name) ]) ])
  in
  meta "process_name" None "ncc_sim"
  :: List.map (fun ((node, _) as t) -> meta "thread_name" (Some node) (track_name t)) (tracks c)

let chrome_trace c =
  Jsonw.Obj
    [
      ("displayTimeUnit", Jsonw.Str "ms");
      ("traceEvents", Jsonw.List (metadata c @ List.map span_json (sorted_spans c)));
    ]

let chrome_trace_string c = Jsonw.to_string (chrome_trace c)

(* --- text timeline ----------------------------------------------------- *)

let timeline ?last (c : Sim.Trace.capture) ppf =
  let evs = sorted_spans c and tracks = tracks c in
  let skip = match last with Some k -> List.length evs - k | None -> 0 in
  List.iter
    (fun e ->
      let track =
        match List.assoc_opt e.node tracks with
        | Some role -> track_name (e.node, role)
        | None -> Printf.sprintf "node %d" e.node
      in
      let mark =
        match e.ph with
        | Complete -> Printf.sprintf "%s %.0fus" e.name (us e.dur)
        | Async_b -> Printf.sprintf "b %s #%d" e.name e.id
        | Async_e -> Printf.sprintf "e %s #%d" e.name e.id
        | Instant -> Printf.sprintf "! %s" e.name
      in
      let args =
        if e.args = [] then ""
        else
          " "
          ^ String.concat " "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) e.args)
      in
      Format.fprintf ppf "%12.6f  %-11s %-9s %s%s@." e.ts track e.cat mark args)
    (List.filteri (fun i _ -> i >= skip) evs)

(* --- structural validation --------------------------------------------- *)

type summary = {
  v_events : int;       (* total events *)
  v_complete : int;     (* Complete spans *)
  v_async_pairs : int;  (* matched b/e pairs *)
  v_open : int;         (* async spans still open at the end *)
}

(* Check the span invariants over the sorted stream: finite nonnegative
   times, nonnegative durations, every async end matching an earlier
   begin of the same (cat, id) with end time >= begin time. Spans still
   open at the end of the trace are an error unless [allow_open] (a
   truncated-at-horizon trace legitimately leaves in-flight spans
   open). *)
let validate ?(allow_open = false) c =
  let evs = sorted_spans c in
  (* begin times of the open spans, innermost first, by (cat, id) *)
  let open_spans : (string * int, float list) Hashtbl.t = Hashtbl.create 64 in
  let begins = ref 0 and pairs = ref 0 and complete = ref 0 in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  List.iter
    (fun e ->
      if not (Float.is_finite e.ts) || e.ts < 0.0 then
        fail "%s %S: bad timestamp" e.cat e.name;
      match e.ph with
      | Complete ->
        incr complete;
        if not (Float.is_finite e.dur) || e.dur < 0.0 then
          fail "complete span %S: negative or non-finite duration" e.name
      | Async_b ->
        let key = (e.cat, e.id) in
        let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans key) in
        Hashtbl.replace open_spans key (e.ts :: stack);
        incr begins
      | Async_e -> (
        let key = (e.cat, e.id) in
        match Hashtbl.find_opt open_spans key with
        | Some (b_ts :: rest) ->
          if e.ts < b_ts then
            fail "async span %s#%d %S ends before it begins" e.cat e.id e.name;
          incr pairs;
          Hashtbl.replace open_spans key rest
        | Some [] | None -> fail "async end %s#%d %S without a begin" e.cat e.id e.name)
      | Instant -> ())
    evs;
  let n_open = !begins - !pairs in
  if n_open > 0 && not allow_open then
    fail "%d async spans never closed" n_open;
  match !err with
  | Some e -> Error e
  | None ->
    Ok
      {
        v_events = List.length evs;
        v_complete = !complete;
        v_async_pairs = !pairs;
        v_open = n_open;
      }
