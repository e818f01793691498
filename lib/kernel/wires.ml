(* One pair-layout Inttbl: a wire maps to its record while undecided,
   then to [committed] or [aborted] for good. *)

type 'a t = { tbl : 'a Inttbl.t; committed : 'a; aborted : 'a }

let create marker =
  let empty = marker () and committed = marker () and aborted = marker () in
  if empty == committed || empty == aborted || committed == aborted then
    invalid_arg "Wires.create: marker must return a fresh value";
  { tbl = Inttbl.create ~empty; committed; aborted }

let absent w = Inttbl.absent w.tbl
let is_outcome w a = a == w.committed || a == w.aborted

let[@ncc.hot] find w wire =
  let a = Inttbl.find w.tbl wire in
  if is_outcome w a then Inttbl.absent w.tbl else a

let bind w wire a = Inttbl.replace w.tbl wire a
let[@ncc.hot] decided w wire = is_outcome w (Inttbl.find w.tbl wire)
let[@ncc.hot] committed w wire = Inttbl.find w.tbl wire == w.committed

let[@ncc.hot] decide w wire ~commit =
  let a = Inttbl.find w.tbl wire in
  if is_outcome w a then Inttbl.absent w.tbl
  else begin
    Inttbl.replace w.tbl wire (if commit then w.committed else w.aborted);
    a
  end
