(* A global, off-by-default event tracer with a fixed-capacity ring
   buffer. Protocol debugging in a discrete-event simulator is all
   about "what happened just before things went wrong"; the ring keeps
   the recent past cheaply and dumps it on demand (see ncc_sim's
   --trace flag).

   Events are typed: a closed kind plus (time, src, dst, x). Nothing is
   formatted when an event is emitted; the ring stores the fields in
   parallel arrays and renders text only in [events]/[dump].

   Call sites guard with [active ()] so a disabled tracer costs one
   branch. The tracer is deliberately ambient: a simulation is
   single-threaded and spans many modules. Its state lives in
   domain-local storage so that parallel sweeps (Harness.Pool) give
   each domain an independent tracer — a chaos job's rolling digest
   only ever sees events from its own domain's runs, and each domain
   owns its own digest chunk. *)

type kind =
  | Send
  | Handle
  | Suppressed
  | Partitioned
  | Dropped
  | Duplicated
  | Lost_down
  | Crash
  | Restart

type event = {
  ev_time : float;
  ev_kind : kind;
  ev_src : int;
  ev_dst : int;
  ev_x : float;
}

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

(* The rolling digest is an MD5 chain over fixed 25-byte records:
   kind (1 byte), time bits (8, LE), src (4, LE), dst (4, LE), x bits
   (8, LE). Records are written straight into [chunk], whose first 16
   bytes hold the digest of everything before it; when the chunk is
   full it is hashed in place and the result becomes the next chunk's
   prefix. An event therefore costs no string, no format and no copy. *)
let record_bytes = 25
let chunk_bytes = 16 + (record_bytes * ((4096 - 16) / record_bytes))

type state = {
  (* ring, as parallel arrays (float arrays are flat: no boxing) *)
  mutable times : float array;
  mutable kinds : kind array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable xs : float array;
  mutable count : int;  (* events since [enable]; the next slot is count mod capacity *)
  mutable on : bool;
  (* Rolling digest over every emitted event, independent of the ring:
     two runs with equal digests produced identical full traces, which
     is how chaos replay proves determinism without storing traces. *)
  mutable digest_on : bool;
  chunk : Bytes.t;
  mutable pos : int;    (* next record offset in [chunk] *)
}

let reset_chunk st =
  Bytes.blit_string (Digest.string "") 0 st.chunk 0 16;
  st.pos <- 16

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        { times = [||]; kinds = [||]; srcs = [||]; dsts = [||]; xs = [||];
          count = 0; on = false; digest_on = false;
          chunk = Bytes.create chunk_bytes; pos = 16 }
      in
      reset_chunk st;
      st)

let st () = Domain.DLS.get key

let enable ?(capacity = 4096) () =
  let st = st () in
  st.times <- Array.make capacity 0.0;
  st.kinds <- Array.make capacity Send;
  st.srcs <- Array.make capacity 0;
  st.dsts <- Array.make capacity 0;
  st.xs <- Array.make capacity 0.0;
  st.count <- 0;
  st.on <- true

let disable () = (st ()).on <- false

(* Turning accumulation on must NOT clear the rolling digest: the
   tracer is a per-domain singleton, so an [enable_digest] from one layer
   mid-run (say, a nested chaos probe) would silently wipe the history
   another layer is still accumulating. Resetting is a separate,
   explicit act. *)
let enable_digest () = (st ()).digest_on <- true

let disable_digest () = (st ()).digest_on <- false

let reset_digest () = reset_chunk (st ())

(* Pure: hashes (previous digest ‖ pending records) without flushing,
   so reading mid-run leaves the chunk boundaries, and hence the final
   digest, where they were. *)
let digest () =
  let st = st () in
  Digest.to_hex (Digest.subbytes st.chunk 0 st.pos)

let active () =
  let st = st () in
  st.on || st.digest_on

let flush st =
  let d = Digest.subbytes st.chunk 0 st.pos in
  Bytes.blit_string d 0 st.chunk 0 16;
  st.pos <- 16

let ev ~time kind ~src ~dst ~x =
  let st = st () in
  if st.digest_on then begin
    if st.pos + record_bytes > chunk_bytes then flush st;
    let b = st.chunk and p = st.pos in
    Bytes.set_uint8 b p (kind_code kind);
    Bytes.set_int64_le b (p + 1) (Int64.bits_of_float time);
    Bytes.set_int32_le b (p + 9) (Int32.of_int src);
    Bytes.set_int32_le b (p + 13) (Int32.of_int dst);
    Bytes.set_int64_le b (p + 17) (Int64.bits_of_float x);
    st.pos <- p + record_bytes
  end;
  let cap = Array.length st.times in
  if st.on && cap > 0 then begin
    let i = st.count mod cap in
    st.times.(i) <- time;
    st.kinds.(i) <- kind;
    st.srcs.(i) <- src;
    st.dsts.(i) <- dst;
    st.xs.(i) <- x;
    st.count <- st.count + 1
  end

let emitted () = (st ()).count

(* The retained events, oldest first. *)
let events () =
  let st = st () in
  let cap = Array.length st.times in
  let n = min st.count cap in
  List.init n (fun k ->
      let i = (st.count - n + k) mod cap in
      { ev_time = st.times.(i); ev_kind = st.kinds.(i); ev_src = st.srcs.(i);
        ev_dst = st.dsts.(i); ev_x = st.xs.(i) })

let category e =
  match e.ev_kind with
  | Send -> "send"
  | Handle -> "handle"
  | Suppressed | Partitioned | Dropped | Duplicated | Lost_down | Crash
  | Restart -> "fault"

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

let dump ?last ppf =
  let evs = events () in
  (* Length computed once: [List.length] inside the filteri predicate
     would make trimming quadratic in the ring size. *)
  let n = List.length evs in
  let evs =
    match last with
    | Some k when n > k -> List.filteri (fun i _ -> i >= n - k) evs
    | Some _ | None -> evs
  in
  List.iter
    (fun e ->
      Format.fprintf ppf "%10.6f  %-8s %s@." e.ev_time (category e) (message e))
    evs
