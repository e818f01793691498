(* Shared serialization-graph machinery: graph building, the dense
   (CSR) freeze, and the iterative colored cycle search. Both the
   post-hoc {!Rsg} checker and the streaming {!Stream} checker search
   their graphs through this module, so a cycle witness means the same
   thing in both.

   Node encoding convention (shared with the checkers): transactions
   are their (positive) ids, the initial writer is 0, auxiliary
   commit-event chain nodes are negative.

   A graph is flat: nodes are numbered in order of first mention
   ([ids] maps the number back to the node id) and edges are two
   parallel int columns in insertion order. {!Rsg} names nodes by id
   through [idx]; {!Stream} numbers its epoch graph itself ([fresh],
   [link]) and reuses one graph across epochs ([clear]). *)

type t = {
  idx : (int, int) Hashtbl.t;  (* node id -> number (id-keyed API only) *)
  mutable ids : int array;
  mutable n : int;
  mutable src : int array;
  mutable dst : int array;
  mutable m : int;
}

let create () = { idx = Hashtbl.create 64; ids = [||]; n = 0; src = [||]; dst = [||]; m = 0 }

let clear g =
  Hashtbl.reset g.idx;
  g.n <- 0;
  g.m <- 0

let room a used =
  if used < Array.length a then a
  else begin
    let b = Array.make (max 64 (2 * used)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

let fresh g id =
  g.ids <- room g.ids g.n;
  g.ids.(g.n) <- id;
  g.n <- g.n + 1;
  g.n - 1

let link g a b =
  g.src <- room g.src g.m;
  g.dst <- room g.dst g.m;
  g.src.(g.m) <- a;
  g.dst.(g.m) <- b;
  g.m <- g.m + 1

let node g id =
  match Hashtbl.find g.idx id with
  | i -> i
  | exception Not_found ->
    let i = fresh g id in
    Hashtbl.add g.idx id i;
    i

let add_node g id = ignore (node g id)

let edge g a b =
  if a <> b then begin
    let ia = node g a in
    let ib = node g b in
    link g ia ib
  end

(* Freeze into CSR form: each node's successors in reverse insertion
   order, and roots tried newest node first. (This is the order the
   previous list-consing adjacency produced, so witnesses are
   unchanged.) Colors are one byte per node; black nodes persist
   across roots, memoizing "no cycle reachable from here". *)
let push stack_n stack_p color sp v =
  stack_n.(sp) <- v;
  stack_p.(sp) <- 0;
  Bytes.set color v '\001';
  sp + 1

(* Iterative colored DFS; returns the first cycle (in node ids) or None. *)
let find_cycle g =
  let n = g.n in
  let start = Array.make (n + 1) 0 in
  for e = 0 to g.m - 1 do
    start.(g.src.(e) + 1) <- start.(g.src.(e) + 1) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let pos = Array.sub start 0 n and succ = Array.make g.m 0 in
  for e = g.m - 1 downto 0 do
    let v = g.src.(e) in
    succ.(pos.(v)) <- g.dst.(e);
    pos.(v) <- pos.(v) + 1
  done;
  let color = Bytes.make n '\000' in (* '\001' on stack, '\002' done *)
  (* explicit stack: node and next-successor offset, as flat arrays
     (the gray chain never exceeds n nodes) *)
  let stack_n = Array.make (max n 1) 0 and stack_p = Array.make (max n 1) 0 in
  let cycle = ref None in
  let root = ref (n - 1) in
  while Option.is_none !cycle && !root >= 0 do
    if Bytes.get color !root = '\000' then begin
      let sp = ref (push stack_n stack_p color 0 !root) in
      while Option.is_none !cycle && !sp > 0 do
        let top = !sp - 1 in
        let v = stack_n.(top) in
        let p = start.(v) + stack_p.(top) in
        if p >= start.(v + 1) then begin
          Bytes.set color v '\002';
          decr sp
        end
        else begin
          stack_p.(top) <- stack_p.(top) + 1;
          let s = succ.(p) in
          match Bytes.get color s with
          | '\000' -> sp := push stack_n stack_p color !sp s
          | '\001' ->
            (* gray: cycle = the gray suffix of the path up to s *)
            let j = ref top in
            while stack_n.(!j) <> s do
              decr j
            done;
            let c = ref [] in
            for k = top downto !j do
              (* ncc-lint: allow R18 — violation path only: materialises the witness cycle after a cycle is found *)
              c := g.ids.(stack_n.(k)) :: !c
            done;
            (* ncc-lint: allow R18 — violation path only: the checker stops at the first violation *)
            cycle := Some !c
          | _ -> ()
        end
      done
    end;
    decr root
  done;
  !cycle

let node_name n =
  if n = 0 then "init"
  else if n > 0 then Printf.sprintf "tx%d" n
  else Printf.sprintf "rt%d" (-n)

let describe_cycle cycle = String.concat " -> " (List.map node_name cycle)
