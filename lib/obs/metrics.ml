(* The metrics registry: named counters, gauges and histograms, each
   optionally scoped to a node. One registry lives for one run (rule
   R5: never a module global), so "per protocol" scoping falls out of
   the harness creating a fresh registry per Runner.run.

   Naming scheme (docs/observability.md): dot-separated families,
   lowercase — "txn.latency_s", "cpu.busy_s", protocol counters keep
   their historical names ("execs", "retries.ok", "net.dropped").
   Units ride in the suffix ("_s" seconds, "_ns" nanoseconds); bare
   names are dimensionless counts.

   Node scope: [?node] defaults to [-1], the run scope. The same name
   may exist at several nodes; [counter_totals] sums a family across
   nodes in node order, which is how the harness feeds
   Runner.result.counters unchanged.

   Storage is flat: a counter or gauge family is one float array
   indexed by [node + 1] (the run scope is slot 0) with a presence
   mark per slot, so filing a run's per-node cells costs one
   name lookup each and no per-cell key. The read side sorts the
   family names (Kernel.Detmap, rule R3) and walks each family's
   slots in order: (name, node) ascending, run scope first.
   Histograms are few and keep a (name, node) table. *)

(* A family's cells: [v.(node + 1)], present where [mark] is set (a
   created cell that was never incremented still reads 0.0 and is
   still listed). *)
type family = { mutable v : float array; mutable mark : Bytes.t }

(* A handle on one cell: the family, whose arrays may grow, and the
   slot. *)
type counter = { fam : family; slot : int }
type gauge = counter

type t = {
  counters : (string, family) Hashtbl.t;
  gauges : (string, family) Hashtbl.t;
  hists : (string * int, Stats.Hist.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 64; gauges = Hashtbl.create 16; hists = Hashtbl.create 8 }

let run_scope = -1

let family tbl name =
  match Hashtbl.find_opt tbl name with
  | Some f -> f
  | None ->
    let f = { v = [||]; mark = Bytes.empty } in
    Hashtbl.replace tbl name f;
    f

(* Get-or-create [node]'s cell in [fam]: its slot. A node below
   [run_scope] fails the bounds check of [Bytes.set]. *)
let slot fam node =
  let i = node + 1 in
  let n = Array.length fam.v in
  if i >= n then begin
    let n' = max (i + 1) (2 * n) in
    let v = Array.make n' 0.0 and mark = Bytes.make n' '\000' in
    Array.blit fam.v 0 v 0 n;
    Bytes.blit fam.mark 0 mark 0 n;
    fam.v <- v;
    fam.mark <- mark
  end;
  Bytes.set fam.mark i '\001';
  i

let cell tbl node name =
  let fam = family tbl name in
  { fam; slot = slot fam node }

let counter t ?(node = run_scope) name = cell t.counters node name

let inc c v = c.fam.v.(c.slot) <- c.fam.v.(c.slot) +. v

(* One-shot increment (get-or-create then add). *)
let add t ?(node = run_scope) name v =
  let fam = family t.counters name in
  let i = slot fam node in
  fam.v.(i) <- fam.v.(i) +. v

let add_list t ?node l = List.iter (fun (name, v) -> add t ?node name v) l

let gauge t ?(node = run_scope) name = cell t.gauges node name

let set_gauge t ?(node = run_scope) name v =
  let fam = family t.gauges name in
  fam.v.(slot fam node) <- v

let hist t ?(node = run_scope) name =
  let key = (name, node) in
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
    let h = Stats.Hist.create () in
    Hashtbl.replace t.hists key h;
    h

let observe t ?node name v = Stats.Hist.add (hist t ?node name) v

(* --- read side ------------------------------------------------------- *)

(* Fold over a family's present cells in node order. *)
let fold_family f fam acc =
  let acc = ref acc in
  for i = 0 to Array.length fam.v - 1 do
    if Bytes.get fam.mark i <> '\000' then acc := f (i - 1) fam.v.(i) !acc
  done;
  !acc

let cells tbl =
  List.concat_map
    (fun (name, fam) ->
      List.rev (fold_family (fun node v acc -> ((name, node), v) :: acc) fam []))
    (Kernel.Detmap.sorted_bindings tbl)

let counters t = cells t.counters
let gauges t = cells t.gauges
let hists t = Kernel.Detmap.sorted_bindings t.hists

(* Families summed across nodes, sorted by name — the historical
   Runner.result.counters shape. Per-node cells are summed in
   ascending node order. *)
let counter_totals t =
  List.map
    (fun (name, fam) -> (name, fold_family (fun _ v tot -> v +. tot) fam 0.0))
    (Kernel.Detmap.sorted_bindings t.counters)

(* --- JSON ------------------------------------------------------------- *)

let scope_json node =
  if node = run_scope then Jsonw.Null else Jsonw.Int node

let hist_json h =
  let q p = Jsonw.Float (Stats.Hist.percentile h p) in
  Jsonw.Obj
    [
      ("count", Jsonw.Int (Stats.Hist.count h));
      ("mean", Jsonw.Float (Stats.Hist.mean h));
      ("min", Jsonw.Float (Stats.Hist.min_value h));
      ("max", Jsonw.Float (Stats.Hist.max_value h));
      ("p50", q 0.50);
      ("p90", q 0.90);
      ("p99", q 0.99);
      ("p999", q 0.999);
    ]

let to_json t =
  let scoped f l =
    Jsonw.List
      (List.map
         (fun ((name, node), v) ->
           Jsonw.Obj
             [ ("name", Jsonw.Str name); ("node", scope_json node); ("value", f v) ])
         l)
  in
  Jsonw.Obj
    [
      ("totals",
       Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Float v)) (counter_totals t)));
      ("counters", scoped (fun v -> Jsonw.Float v) (counters t));
      ("gauges", scoped (fun v -> Jsonw.Float v) (gauges t));
      ("histograms",
       Jsonw.List
         (List.map
            (fun ((name, node), h) ->
              Jsonw.Obj
                [
                  ("name", Jsonw.Str name);
                  ("node", scope_json node);
                  ("value", hist_json h);
                ])
            (hists t)));
    ]
