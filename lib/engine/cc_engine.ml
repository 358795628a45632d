(* A fixed-size domain pool with chunked work dispatch.

   One job runs at a time (the caller blocks until it completes), so the
   whole scheduler is a single mutable [current] slot guarded by a mutex,
   plus two atomics inside the job: [next] hands out chunk start indices,
   [unfinished] counts chunks still running. Workers poll generations: a
   worker that has finished job [g] sleeps until [generation > g], which
   also makes completed jobs safe to observe late (their [next] is already
   exhausted, so a stale worker grabs nothing).

   Determinism does not depend on the dispatch order: every index writes
   only its own slot and the first-failing chunk is chosen by smallest
   start index, not by wall-clock arrival. *)

type job = {
  body : int -> unit;
  hi : int;
  chunk : int;
  next : int Atomic.t; (* next chunk start index *)
  unfinished : int Atomic.t; (* chunks not yet completed *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
      (* smallest-start-index failing chunk, for deterministic re-raise *)
}

type pool = {
  n_domains : int; (* participants, including the calling domain *)
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  cv : Condition.t;
  mutable current : job option;
  mutable generation : int;
  mutable stop : bool;
  active : bool Atomic.t; (* a region is running: nested calls go inline *)
  busy : float array; (* cumulative busy seconds per slot (0 = caller) *)
}

type t = Sequential | Pool of pool

let sequential = Sequential

let env_var = "CC_DOMAINS"

let parse_domains s =
  let trimmed = String.trim s in
  if trimmed = "" then
    Error "domain count must not be empty (expected an integer >= 1)"
  else
    match int_of_string_opt trimmed with
    | Some d when d >= 1 -> Ok d
    | Some d -> Error (Printf.sprintf "domain count must be >= 1 (got %d)" d)
    | None -> Error (Printf.sprintf "invalid domain count %S" s)

let default_domains () =
  match Sys.getenv_opt env_var with
  | None -> max 1 (Domain.recommended_domain_count ())
  | Some s -> (
      match parse_domains s with
      | Ok d -> d
      | Error msg -> invalid_arg (env_var ^ ": " ^ msg))

let domains = function Sequential -> 1 | Pool p -> p.n_domains

let is_parallel = function
  | Sequential -> false
  | Pool p -> (not p.stop) && p.n_domains > 1

(* Grab chunks until the job is drained; called by workers and the
   submitting domain alike. Bodies never leak exceptions: they are recorded
   on the job and re-raised by the submitter after the barrier. *)
let run_chunks pool slot job =
  let t0 = Unix.gettimeofday () in
  let running = ref true in
  while !running do
    let lo = Atomic.fetch_and_add job.next job.chunk in
    if lo >= job.hi then running := false
    else begin
      let hi = min job.hi (lo + job.chunk) in
      (try
         for i = lo to hi - 1 do
           job.body i
         done
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.m;
         (match job.failure with
         | Some (lo0, _, _) when lo0 <= lo -> ()
         | _ -> job.failure <- Some (lo, e, bt));
         Mutex.unlock pool.m);
      if Atomic.fetch_and_add job.unfinished (-1) = 1 then begin
        (* Last chunk: wake the submitter blocked on the barrier. *)
        Mutex.lock pool.m;
        Condition.broadcast pool.cv;
        Mutex.unlock pool.m
      end
    end
  done;
  pool.busy.(slot) <- pool.busy.(slot) +. (Unix.gettimeofday () -. t0)

let rec worker_loop pool slot seen =
  Mutex.lock pool.m;
  let rec await () =
    if pool.stop then None
    else
      match pool.current with
      | Some job when pool.generation > seen -> Some (pool.generation, job)
      | _ ->
          Condition.wait pool.cv pool.m;
          await ()
  in
  let claimed = await () in
  Mutex.unlock pool.m;
  match claimed with
  | None -> ()
  | Some (gen, job) ->
      run_chunks pool slot job;
      worker_loop pool slot gen

let create ?domains () =
  let d = match domains with Some d -> d | None -> default_domains () in
  if d < 1 then invalid_arg "Cc_engine.create: domains must be >= 1";
  if d = 1 then Sequential
  else begin
    let pool =
      {
        n_domains = d;
        workers = [||];
        m = Mutex.create ();
        cv = Condition.create ();
        current = None;
        generation = 0;
        stop = false;
        active = Atomic.make false;
        busy = Array.make d 0.0;
      }
    in
    pool.workers <-
      Array.init (d - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop pool (i + 1) 0));
    Cc_obs.Metrics.set_gauge "engine.domains" (float_of_int d);
    Pool pool
  end

let shutdown = function
  | Sequential -> ()
  | Pool pool ->
      Mutex.lock pool.m;
      if not pool.stop then begin
        pool.stop <- true;
        Condition.broadcast pool.cv
      end;
      Mutex.unlock pool.m;
      let ws = pool.workers in
      pool.workers <- [||];
      Array.iter Domain.join ws

(* --- default engine ----------------------------------------------------- *)

let installed : t option ref = ref None

let get () =
  match !installed with
  | Some e -> e
  | None ->
      let e = create () in
      installed := Some e;
      e

let set_default e = installed := Some e

let install_domains = function
  | Some s -> (
      match parse_domains s with
      | Error e -> Error ("--domains: " ^ e)
      | Ok d ->
          let e = create ~domains:d () in
          set_default e;
          at_exit (fun () -> shutdown e);
          Ok ())
  | None -> (
      (* No flag: the lazy default will read the variable, so report a bad
         value now instead of as a mid-run Invalid_argument. *)
      match Sys.getenv_opt env_var with
      | None -> Ok ()
      | Some s -> (
          match parse_domains s with
          | Ok _ -> Ok ()
          | Error e -> Error (env_var ^ ": " ^ e)))

let with_engine e f =
  let prev = !installed in
  installed := Some e;
  Fun.protect ~finally:(fun () -> installed := prev) f

(* --- parallel loops ----------------------------------------------------- *)

let seq_for ~lo ~hi body =
  for i = lo to hi - 1 do
    body i
  done

let run_pool pool ?chunk ~lo ~hi body =
  let count = hi - lo in
  let chunk =
    match chunk with
    | Some c -> max 1 c
    | None -> max 1 ((count + (4 * pool.n_domains) - 1) / (4 * pool.n_domains))
  in
  let nchunks = (count + chunk - 1) / chunk in
  let job =
    {
      body;
      hi;
      chunk;
      next = Atomic.make lo;
      unfinished = Atomic.make nchunks;
      failure = None;
    }
  in
  Cc_obs.Trace.with_span "engine.job"
    ~args:
      [
        ("items", string_of_int count);
        ("chunks", string_of_int nchunks);
        ("domains", string_of_int pool.n_domains);
      ]
  @@ fun () ->
  Mutex.lock pool.m;
  pool.generation <- pool.generation + 1;
  pool.current <- Some job;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  run_chunks pool 0 job;
  Mutex.lock pool.m;
  while Atomic.get job.unfinished > 0 do
    Condition.wait pool.cv pool.m
  done;
  pool.current <- None;
  Mutex.unlock pool.m;
  (* Observability, from the submitting domain only (the registry is not
     domain-safe): job shape plus the cumulative per-domain busy clocks. *)
  Cc_obs.Metrics.incr "engine.jobs";
  Cc_obs.Metrics.incr ~by:nchunks "engine.tasks";
  Cc_obs.Metrics.observe "engine.queue_depth" (float_of_int nchunks);
  Cc_obs.Metrics.observe "engine.chunk_items" (float_of_int chunk);
  Array.iteri
    (fun slot s ->
      Cc_obs.Metrics.set_gauge
        (Printf.sprintf "engine.domain%d.busy_s" slot)
        s)
    pool.busy;
  match job.failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_for ?chunk t ~lo ~hi body =
  if hi > lo then
    match t with
    | Sequential -> seq_for ~lo ~hi body
    | Pool pool ->
        if pool.stop || not (Atomic.compare_and_set pool.active false true)
        then
          (* Shut down, or nested inside a running region (e.g. a worker's
             body reached another instrumented kernel): run inline. *)
          seq_for ~lo ~hi body
        else
          Fun.protect
            ~finally:(fun () -> Atomic.set pool.active false)
            (fun () -> run_pool pool ?chunk ~lo ~hi body)

let parallel_map t n f =
  if n < 0 then invalid_arg "Cc_engine.parallel_map: negative size";
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for t ~lo:0 ~hi:n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some x -> x | None -> assert false) out
  end
