(* A work-stealing domain pool for independent simulation jobs.

   A sweep (figure curve, chaos seed matrix, bench suite) is a batch of
   fully self-contained jobs: each one builds its own Sim.Engine, Rng,
   topology, net and store inside the closure, and every piece of
   ambient per-run state (txn ids, version ids, the tracer) is
   domain-local and reset at the start of Runner.run. That isolation is
   what makes the parallel schedule invisible: a job computes the same
   result whichever domain runs it and whenever it starts. A job's
   streaming checker is fed inline on the job's own domain, so the
   pool is the only place domains are spawned.

   Scheduling is a single atomic cursor over the job array — idle
   workers steal the next unclaimed index — so load imbalance
   (adversarial job durations) costs at most one job's tail, and no
   job order is ever imposed beyond "each job runs exactly once".
   Results are written into a slot unique to the job and read back in
   submission order after every worker has joined (the join is the
   happens-before edge), so callers observe canonical order no matter
   how the jobs interleaved.

   [jobs <= 1] short-circuits to plain sequential iteration on the
   calling domain: no domains are spawned, no atomics touched — the
   exact code path a non-pooled caller would have run. CI and golden
   outputs therefore cannot move unless a caller opts in with
   --jobs > 1, and when it does, outputs still cannot move because of
   the isolation + canonical merge argument above (audited statically
   by lint rule R12, the race plane's escape analysis: any mutable
   location — toplevel, captured local, or mutable field — reachable
   from a submitted closure is flagged unless it goes through Atomic,
   a held mutex, Domain.DLS, or a per-slot write at the job's index).

   Exceptions are confined to their job: a raising job records its
   exception in its own slot and the worker moves on, so one bad seed
   cannot poison its siblings. [map] re-raises the first failure (in
   submission order, not completion order) only after the whole batch
   has run. *)

let cpu_count () = Domain.recommended_domain_count ()

let workers jobs =
  if jobs < 0 then None else Some (if jobs = 0 then cpu_count () else jobs)

(* Run every thunk exactly once; result list is in submission order. *)
let submit ~jobs tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let run_one f = match f () with v -> Ok v | exception e -> Error e in
  if n = 0 then []
  else if jobs <= 1 then Array.to_list (Array.map run_one arr)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (run_one arr.(i));
        worker ()
      end
    in
    (* the calling domain is worker number [jobs]; spawn the rest *)
    let spawned = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let map ~jobs f xs =
  let results = submit ~jobs (List.map (fun x () -> f x) xs) in
  List.map (function Ok v -> v | Error e -> raise e) results
