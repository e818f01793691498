(* The simulator's one tracer (readers and kinds: trace.mli). Nothing
   is formatted at emission; readers store the fields. The tracer is
   deliberately ambient: a simulation is single-threaded and spans
   many modules. Its state is domain-local, so parallel sweeps
   (Harness.Pool) give each domain its own tracer and a chaos job's
   digest only sees its own domain's runs. *)

type kind =
  | Send | Handle | Suppressed | Partitioned | Dropped | Duplicated | Lost_down
  | Crash | Restart
  | Arrive | Queued | Txn_begin | Attempt_begin | Attempt_end | Txn_end | Gave_up
  | Backoff | Shed | Epoch | Finalize | Track

type event = {
  ev_time : float;
  ev_kind : kind;
  ev_src : int;
  ev_dst : int;
  ev_x : float;
  ev_start : float;
  ev_dur : float;
  ev_id : int;
  ev_code : int;
}

let server_track = 0
let replica_track = 1
let client_track = 2
let checker_track = 3

(* The digest's kind byte; -1 for the span kinds, which neither the
   digest nor the ring sees. *)
let kind_code = function
  | Send -> 0
  | Handle -> 1
  | Suppressed -> 2
  | Partitioned -> 3
  | Dropped -> 4
  | Duplicated -> 5
  | Lost_down -> 6
  | Crash -> 7
  | Restart -> 8
  | _ -> -1

(* The rolling digest is an MD5 chain over fixed 29-byte records:
   kind (1 byte), time bits (8, LE), src (4, LE), dst (4, LE), x bits
   (8, LE), phase code (4, LE). The code tells message kinds of equal
   cost and endpoints apart; [id] stays out, as it is an arena slot.
   Records are written straight into [chunk], whose first 16 bytes hold
   the digest of everything before it; when the chunk is full it is
   hashed in place and the result becomes the next chunk's prefix. An
   event therefore costs no string, no format and no copy. *)
let record_bytes = 29
let chunk_bytes = 16 + (record_bytes * ((4096 - 16) / record_bytes))

(* Events as columns: per slot, four floats (time, x, start, dur) in a
   flat float array (stored unboxed), four ints (src, dst, id, code),
   and the kind. [n] counts the events written: the ring writes slot
   n mod capacity, the capture appends. *)
type cols = {
  mutable fs : float array;
  mutable is : int array;
  mutable ks : kind array;
  mutable n : int;
}

let cols_make n =
  { fs = Array.make (4 * n) 0.0; is = Array.make (4 * n) 0; ks = Array.make n Send; n = 0 }

let cols_get c i =
  let f k = c.fs.((4 * i) + k) and n k = c.is.((4 * i) + k) in
  { ev_time = f 0; ev_x = f 1; ev_start = f 2; ev_dur = f 3; ev_kind = c.ks.(i);
    ev_src = n 0; ev_dst = n 1; ev_id = n 2; ev_code = n 3 }

(* Double the capacity, keeping the slots. *)
let cols_grow c =
  let cap = max 256 (2 * Array.length c.ks) in
  (* ncc-lint: allow R18 — one closure per capacity doubling, amortised over the events that filled the buffer *)
  let g a fill w =
    let b = Array.make (w * cap) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  c.fs <- g c.fs 0.0 4;
  c.is <- g c.is 0 4;
  c.ks <- g c.ks Send 1

let store c i ~time kind ~src ~dst ~x ~start ~dur ~id ~code =
  let j = 4 * i in
  c.fs.(j) <- time;
  c.fs.(j + 1) <- x;
  c.fs.(j + 2) <- start;
  c.fs.(j + 3) <- dur;
  c.is.(j) <- src;
  c.is.(j + 1) <- dst;
  c.is.(j + 2) <- id;
  c.is.(j + 3) <- code;
  c.ks.(i) <- kind

let append c ~time kind ~src ~dst ~x ~start ~dur ~id ~code =
  if c.n = Array.length c.ks then cols_grow c;
  store c c.n ~time kind ~src ~dst ~x ~start ~dur ~id ~code;
  c.n <- c.n + 1

type capture = { events : event array; dropped : int }

type state = {
  mutable on : bool;
  mutable ring : cols;
  mutable digest_on : bool;
  chunk : Bytes.t;
  mutable pos : int;  (* next record offset in [chunk] *)
  mutable cap_on : bool;
  mutable cap : cols;
  mutable spans : int;  (* span events offered to the capture *)
  mutable limit : int;
}

let reset_chunk st =
  Bytes.blit_string (Digest.string "") 0 st.chunk 0 16;
  st.pos <- 16

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        { on = false; ring = cols_make 0; digest_on = false; chunk = Bytes.create chunk_bytes;
          pos = 16; cap_on = false; cap = cols_make 0; spans = 0; limit = 0 }
      in
      reset_chunk st;
      st)

let st () = Domain.DLS.get key

let enable ?(capacity = 4096) () =
  let st = st () in
  st.ring <- cols_make capacity;
  st.on <- true

let disable () = (st ()).on <- false

(* Turning accumulation on must NOT clear the rolling digest: a mid-run
   [enable_digest] from one layer would wipe the history another layer
   is accumulating. Resetting is a separate, explicit act. *)
let enable_digest () = (st ()).digest_on <- true

let disable_digest () = (st ()).digest_on <- false

let reset_digest () = reset_chunk (st ())

(* Pure: hashes (previous digest ‖ pending records) without flushing,
   so reading mid-run leaves the chunk boundaries, and hence the final
   digest, where they were. *)
let digest () =
  let st = st () in
  Digest.to_hex (Digest.subbytes st.chunk 0 st.pos)

let start_capture ?(limit = 2_000_000) () =
  let st = st () in
  st.cap <- cols_make 0;
  st.spans <- 0;
  st.limit <- limit;
  st.cap_on <- true

let stop_capture () =
  let st = st () in
  st.cap_on <- false;
  let c =
    { events = Array.init st.cap.n (cols_get st.cap); dropped = max 0 (st.spans - st.limit) }
  in
  st.cap <- cols_make 0;
  c

let active () =
  let st = st () in
  st.on || st.digest_on || st.cap_on

let flush st =
  let d = Digest.subbytes st.chunk 0 st.pos in
  Bytes.blit_string d 0 st.chunk 0 16;
  st.pos <- 16

let emit ~time kind ~src ~dst ~x ~start ~dur ~id ~code =
  let st = st () in
  let k = kind_code kind in
  if k >= 0 && st.digest_on then begin
    if st.pos + record_bytes > chunk_bytes then flush st;
    let b = st.chunk and p = st.pos in
    Bytes.set_uint8 b p k;
    Bytes.set_int64_le b (p + 1) (Int64.bits_of_float time);
    Bytes.set_int32_le b (p + 9) (Int32.of_int src);
    Bytes.set_int32_le b (p + 13) (Int32.of_int dst);
    Bytes.set_int64_le b (p + 17) (Int64.bits_of_float x);
    Bytes.set_int32_le b (p + 25) (Int32.of_int code);
    st.pos <- p + record_bytes
  end;
  let r = st.ring and c = st.cap in
  if k >= 0 && st.on && Array.length r.ks > 0 then begin
    store r (r.n mod Array.length r.ks) ~time kind ~src ~dst ~x ~start ~dur ~id ~code;
    r.n <- r.n + 1
  end;
  (* The capture keeps what the exporter draws — one span per event,
     counted against the limit — and every track name. *)
  if st.cap_on then
    match kind with
    | Suppressed | Partitioned | Dropped | Crash | Restart -> ()
    | Track -> append c ~time kind ~src ~dst ~x ~start ~dur ~id ~code
    | _ ->
      if st.spans < st.limit then append c ~time kind ~src ~dst ~x ~start ~dur ~id ~code;
      st.spans <- st.spans + 1

let[@ncc.hot] ev ~time kind ~src ~dst ~x =
  emit ~time kind ~src ~dst ~x ~start:0.0 ~dur:0.0 ~id:0 ~code:0

let emitted () = (st ()).ring.n

(* The retained ring events, oldest first. *)
let events () =
  let st = st () in
  let r = st.ring in
  let cap = Array.length r.ks in
  let n = min r.n cap in
  List.init n (fun k -> cols_get r ((r.n - n + k) mod cap))

let category e =
  match e.ev_kind with
  | Send -> "send"
  | Handle -> "handle"
  | Suppressed | Partitioned | Dropped | Duplicated | Lost_down | Crash
  | Restart ->
    "fault"
  | _ -> "span"

let message e =
  let s = e.ev_src and d = e.ev_dst in
  match e.ev_kind with
  | Send -> Printf.sprintf "%d -> %d (arrives +%.0fus)" s d (e.ev_x *. 1e6)
  | Handle -> Printf.sprintf "node %d handles message from %d" d s
  | Suppressed -> Printf.sprintf "send %d -> %d suppressed: sender down" s d
  | Partitioned -> Printf.sprintf "message %d -> %d lost: link partitioned" s d
  | Dropped -> Printf.sprintf "message %d -> %d dropped" s d
  | Duplicated ->
    Printf.sprintf "message %d -> %d duplicated (copy +%.0fus)" s d
      (e.ev_x *. 1e6)
  | Lost_down -> Printf.sprintf "message %d -> %d lost: node down" s d
  | Crash -> Printf.sprintf "node %d crashed" s
  | Restart -> Printf.sprintf "node %d restarted" s
  | _ -> Printf.sprintf "span event on node %d" s

let dump ?last ppf =
  let evs = events () in
  let skip = match last with Some k -> List.length evs - k | None -> 0 in
  List.iteri
    (fun i e ->
      if i >= skip then
        Format.fprintf ppf "%10.6f  %-8s %s@." e.ev_time (category e) (message e))
    evs
