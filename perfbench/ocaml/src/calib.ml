(* A fixed reference kernel, timed next to the simulator to tell how fast
   the shared host runs at that moment: pseudo-random updates of a 2 KB
   table. It allocates nothing and touches little memory, so it neither
   depends on the simulator's heap nor disturbs it. *)

let table = Array.make 256 0

let tick_ns () =
  let t0 = Probe.now_ns () in
  let x = ref 777 in
  for _ = 1 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 255 in
    table.(j) <- table.(j) + (!x lsr 12)
  done;
  Probe.now_ns () - t0
