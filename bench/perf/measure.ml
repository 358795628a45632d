(* Runs one workload and turns it into the benchmark's metrics.

   The host's speed is not steady. On the two-vCPU VM this benchmark was
   written on, the same pure loop took 4.5 ms or 7 ms depending on the
   second, each vCPU switched between the two on its own, and over a
   quarter of an hour whole runs drifted by 30%. Plain runs correct for
   this in two ways.

   - Calibration. Every quarter second, between two requests, a lane
     times a fixed piece of work ({!Calibrate.sample}). Each request's
     latency is scaled by [calib_ref] over the median of the samples
     taken within a second of its start: it is reported as it would have
     taken on a host where the sample takes [calib_ref].
   - Two lanes. Two processes run the same fixed batch of requests at
     once, each on its own set-up of the same seed, so their work is
     identical down to the plan memo's misses. Each request counts with
     the mean of its two scaled latencies.

   Over ten seeds, the quartile spread of raw throughput and latency
   quantiles was 11-31% of the median; scaled and averaged over two lanes
   it was 3-8%.

   Set-up time is the median of set-ups repeated in bursts before and
   after each lane's batch, each scaled by the samples nearest to it.

   A traced run makes three passes over one batch in one process, each on
   a fresh set-up: an untraced pass that supplies the program's own
   counters, a traced pass that supplies per-layer self times, and an
   untraced pass against which the traced one gives the cost of tracing,
   as the ratio of their scaled latencies. Self times are not scaled. *)

module Graph = Cc_graph.Graph
module Trace = Cc_obs.Trace
module Metrics = Cc_obs.Metrics
module W = Workloads

type limit = Seconds of float | Requests of int

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  info : string list;  (** report lines: environment, inputs, checks *)
  spans : (string * float) list;
      (** traced runs: self time in ms per request, by span name *)
  tiling : float;
      (** traced runs: |sum of self times - traced wall| / traced wall *)
}

(* One pass over the batch, on its own set-up. *)
type pass = {
  domains : int;
  inputs : (string * Graph.t) list;
  latencies : float array;  (** ms, one per request *)
  starts : float array;  (** when each request was about to start *)
  calib : (float * float) array;  (** {!Calibrate.sample}s: (when, seconds) *)
  wall : float;  (** seconds, timed region *)
  alloc_words : float;
  rounds : float;
  counters : (string * Metrics.value) list;
  outputs : string list array;  (** each request's trees, as sorted keys *)
  peak_rss_mb : float;  (** VmHWM once the requests are done, before the check *)
  check : W.check option;  (** the full output check, on the first pass *)
  self : (string * float) list;  (** traced passes: self seconds by span name *)
  net_events : int;  (** traced passes: Net events booked *)
}

(* Requests per pass, so that [passes] passes one after the other take
   about [seconds] at the workload's reference rate. *)
let batch (w : W.t) ~passes = function
  | Requests n -> n
  | Seconds s -> max 2 (Float.to_int (Float.round (s *. w.rate /. float_of_int passes)))

let now = Unix.gettimeofday

(* Seconds between calibration samples during a pass, and the sample
   time that scaled times refer to: about the median on the reference
   host. *)
let calib_every = 0.25
let calib_ref = 0.0025

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i >= Array.length a - 1 then a.(Array.length a - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Self time is a span's duration minus its direct children's, found by one
   walk over the completed roots. *)
let self_times tr =
  let tbl = Hashtbl.create 32 in
  let dur (s : Trace.span) = s.stop_ts -. s.start_ts in
  let rec visit (s : Trace.span) =
    let children = List.fold_left (fun acc c -> visit c; acc +. dur c) 0.0 s.children in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (prev +. dur s -. children)
  in
  List.iter visit (Trace.roots tr);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match Scanf.sscanf_opt (input_line ic) "VmHWM: %d kB" Fun.id with
    | Some kb -> float_of_int kb /. 1024.0
    | None -> find ()
  in
  find ()

let set_up (w : W.t) ~size ~seed ~domains ~batch =
  let t0 = now () in
  let engine = Cc_engine.create ~domains () in
  Cc_engine.set_default engine;
  let inst = w.setup size ~seed ~requests:batch in
  (now () -. t0, engine, inst)

(* Set-up and tear-down, repeated for up to a quarter second and [most]
   times: (when, seconds) of each set-up. With more than one domain each
   set-up spawns and joins the engine's domains, and thousands of those
   raise the peak RSS far above what the requests reach, hence the cap. *)
let setup_burst w ~size ~seed ~domains ~batch ~most =
  let deadline = now () +. 0.25 in
  let rec go k acc =
    if k >= most || (k > 0 && now () >= deadline) then acc
    else begin
      let t = now () in
      let dt, engine, inst = set_up w ~size ~seed ~domains ~batch in
      inst.W.teardown ();
      Cc_engine.shutdown engine;
      go (k + 1) ((t, dt) :: acc)
    end
  in
  go 0 []

let run_pass (w : W.t) ~size ~seed ~domains ~batch ~traced ~check =
  let _, engine, inst = set_up w ~size ~seed ~domains ~batch in
  Metrics.reset ();
  let trace = if traced then Some (Trace.create ~max_events:0 ()) else None in
  let starts = Array.make batch Float.nan in
  let calib = ref [] in
  let last = ref Float.neg_infinity in
  let stop i =
    i >= batch
    || begin
         if now () -. !last >= calib_every then begin
           let c = Trace.with_span "bench.calibrate" Calibrate.sample in
           calib := (now (), c) :: !calib;
           last := now ()
         end;
         starts.(i) <- now ();
         false
       end
  in
  let a0 = allocated () in
  let t0 = now () in
  let serve () = Trace.with_span "bench.run" (fun () -> inst.run ~stop) in
  let latencies =
    match trace with Some tr -> Trace.with_trace tr serve | None -> serve ()
  in
  let wall = now () -. t0 in
  (* Allocation on worker domains is only counted once they have ended. *)
  Cc_engine.shutdown engine;
  let alloc_words = allocated () -. a0 in
  let counters = Metrics.snapshot () in
  let outputs =
    Array.of_list
      (List.map
         (fun trees -> List.sort compare (List.map Cc_graph.Tree.canonical_key trees))
         (inst.outputs ()))
  in
  let peak_rss_mb = peak_rss_mb () in
  let check = if check then Some (inst.check ()) else None in
  let self, net_events =
    match trace with
    | Some tr -> (self_times tr, Trace.dropped_events tr)
    | None -> ([], 0)
  in
  inst.teardown ();
  {
    domains = Cc_engine.domains engine;
    inputs = inst.inputs;
    latencies;
    starts;
    calib = Array.of_list (List.rev !calib);
    wall;
    alloc_words;
    rounds = inst.rounds ();
    counters;
    outputs;
    peak_rss_mb;
    check;
    self;
    net_events;
  }

(* The first pass is checked in full. The others ran the same requests on
   the same inputs, so they must give the same trees; a request whose
   trees differ, or that is missing, fails. *)
let failed = function
  | [] -> 0
  | (first : pass) :: rest ->
      let own = match first.check with Some c -> c.W.failed | None -> 0 in
      let differ (p : pass) =
        let n = max (Array.length first.outputs) (Array.length p.outputs) in
        let out (q : pass) i = if i < Array.length q.outputs then Some q.outputs.(i) else None in
        List.length (List.filter (fun i -> out first i <> out p i) (List.init n Fun.id))
      in
      List.fold_left (fun acc p -> acc + differ p) own rest

let attempted passes =
  List.fold_left (fun acc (p : pass) -> acc + Array.length p.latencies) 0 passes

(* Which layer each span's self time belongs to; the benchmark's own spans
   ([bench.*]) delimit the layers that have no span inside the program. *)
let layers =
  [
    ("placement.exact", [ "placement.exact" ]);
    ("phase_walk.level", [ "phase_walk.level" ]);
    ("shortcut.exact", [ "shortcut.exact" ]);
    ("matmul", [ "matmul.mul"; "matmul.power_table" ]);
    ("sampler.phase", [ "sampler.phase"; "sampler.draw"; "sampler.sample" ]);
    ("sampler.prepare", [ "sampler.prepare" ]);
    ("engine.job", [ "engine.job" ]);
    ("serve", [ "bench.serve_step" ]);
    ("doubling", [ "doubling.run"; "doubling.iteration" ]);
    ("audit_create", [ "bench.audit_create" ]);
    ("sparsify", [ "bench.sparsify" ]);
    ("determinantal", [ "bench.determinantal" ]);
    ("client", [ "bench.run"; "bench.draw"; "bench.client" ]);
  ]

let layer_of span =
  match List.find_opt (fun (_, spans) -> List.mem span spans) layers with
  | Some (layer, _) -> layer
  | None -> "other"

(* Counters the program keeps in its metrics registry, summed per metric. *)
let counts =
  [
    ("count.placements", [ "phase_walk.matchings_exact"; "phase_walk.matchings_mcmc" ]);
    ("count.mcmc_fallbacks", [ "phase_walk.matchings_mcmc" ]);
    ("count.checks", [ "phase_walk.checks" ]);
    ("count.midpoints", [ "phase_walk.midpoints" ]);
    ("count.shortcut_solves", [ "sampler.plan.memo_miss" ]);
    ("count.matmul_muls", [ "matmul.muls" ]);
    ("count.phases", [ "sampler.phases" ]);
    ("count.walk_len", [ "sampler.walk_total" ]);
    ("count.engine_jobs", [ "engine.jobs" ]);
    ("count.engine_tasks", [ "engine.tasks" ]);
    ("count.prepares", [ "server.cache.miss" ]);
  ]

let counter (p : pass) name =
  match List.assoc_opt name p.counters with
  | Some (Metrics.Counter c) -> float_of_int c
  | Some (Metrics.Histogram h) -> h.Metrics.sum
  | Some (Metrics.Gauge g) -> g
  | None -> 0.0

let ratio num den = if den > 0.0 then num /. den else 0.0

(* --- reports --------------------------------------------------------- *)

let digest_requests = 20

let digest_lines lines = "md5:" ^ Digest.to_hex (Digest.string (String.concat "\n" lines))

let info (p : pass) ~passes ~label =
  let env =
    Printf.sprintf "env domains=%d cpus=%d ocaml=%s host=%s" p.domains
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (Unix.gethostname ())
  in
  let input (label, g) =
    Printf.sprintf "input %s n=%d m=%d %s" label (Graph.n g) (Graph.num_edges g)
      (Graph.fingerprint g)
  in
  let inputs =
    if List.length p.inputs <= 8 then List.map input p.inputs
    else
      [
        Printf.sprintf "inputs %d graphs, fingerprints %s" (List.length p.inputs)
          (digest_lines (List.map (fun (_, g) -> Graph.fingerprint g) p.inputs));
      ]
  in
  (* The first [digest_requests] requests, which a batch of any size
     starts with, so that runs of two commits digest the same requests. *)
  let prefix = Array.sub p.outputs 0 (min digest_requests (Array.length p.outputs)) in
  let trees = List.concat (Array.to_list prefix) in
  let notes = match p.check with Some c -> c.W.notes | None -> [] in
  (env :: inputs)
  @ List.map (fun n -> "check " ^ n) notes
  @ [
      (* Order-independent, so a change can show its samples did not move. *)
      Printf.sprintf "tree_digest first %d requests, %d trees %s" (Array.length prefix)
        (List.length trees)
        (digest_lines (List.sort compare trees));
      Printf.sprintf "%s %d of %d requests, walls %s s" label (List.length passes)
        (Array.length p.latencies)
        (String.concat " " (List.map (fun q -> Printf.sprintf "%.3f" q.wall) passes));
    ]

let median xs = quantile xs 0.5

(* The calibration samples taken within a second of [t], or the four
   nearest when fewer than three are. *)
let calib_near (p : pass) t =
  let gap (u, _) = Float.abs (u -. t) in
  let all = Array.to_list p.calib in
  let near = List.filter (fun c -> gap c <= 1.0) all in
  let near =
    if List.length near >= 3 then near
    else List.filteri (fun i _ -> i < 4) (List.sort (fun a b -> Float.compare (gap a) (gap b)) all)
  in
  median (Array.of_list (List.map snd near))

(* Each request's latency scaled to the reference host, averaged over the
   passes, which all ran it. *)
let scaled passes =
  match passes with
  | [] -> [||]
  | (first : pass) :: _ ->
      let scale (p : pass) i = p.latencies.(i) *. calib_ref /. calib_near p p.starts.(i) in
      let n = float_of_int (List.length passes) in
      Array.mapi
        (fun i _ -> List.fold_left (fun acc p -> acc +. scale p i) 0.0 passes /. n)
        first.latencies

(* One lane of a plain run: its pass over the batch and its set-up times. *)
type lane = { pass : pass; setups : (float * float) list }

(* Throughput from the scaled latencies by Little's law: [callers]
   requests are always in flight, so the rate is callers / mean latency.
   For one caller this is requests / time spent in requests. *)
let plain (w : W.t) lanes =
  let passes = List.map (fun l -> l.pass) lanes in
  let lat = scaled passes in
  let mean = Array.fold_left ( +. ) 0.0 lat /. float_of_int (Array.length lat) in
  let alloc = List.fold_left (fun acc (p : pass) -> acc +. p.alloc_words) 0.0 passes in
  let setups =
    Array.of_list
      (List.concat_map
         (fun l -> List.map (fun (t, dt) -> dt *. calib_ref /. calib_near l.pass t) l.setups)
         lanes)
  in
  [
    { name = "req_per_s"; value = 1000.0 *. float_of_int w.callers /. mean; unit_ = "1/s" };
    { name = "req_ms_p50"; value = quantile lat 0.5; unit_ = "ms" };
    { name = "req_ms_p90"; value = quantile lat 0.9; unit_ = "ms" };
    { name = "setup_s"; value = median setups; unit_ = "s" };
    {
      name = "alloc_mw_per_req";
      value = alloc /. float_of_int (attempted passes) /. 1e6;
      unit_ = "Mwords";
    };
    {
      name = "peak_rss_mb";
      value = List.fold_left (fun acc (p : pass) -> Float.max acc p.peak_rss_mb) 0.0 passes;
      unit_ = "MiB";
    };
  ]

(* [p] is the first untraced pass, [q] the traced pass and [r] the second
   untraced pass, all over the same requests. Calibration belongs to no
   layer. *)
let per_layer (p : pass) (q : pass) (r : pass) =
  let n = float_of_int (Array.length p.latencies) in
  let self_ms layer =
    List.fold_left
      (fun acc (span, s) ->
        if span <> "bench.calibrate" && layer_of span = layer then acc +. s else acc)
      0.0 q.self
    *. 1000.0 /. n
  in
  let total pass = Array.fold_left ( +. ) 0.0 (scaled [ pass ]) in
  let sum names = List.fold_left (fun acc c -> acc +. counter p c) 0.0 names in
  List.map
    (fun layer -> { name = "self_ms." ^ layer; value = self_ms layer; unit_ = "ms/req" })
    (List.map fst layers @ [ "other" ])
  @ List.map (fun (name, names) -> { name; value = sum names /. n; unit_ = "1/req" }) counts
  @ [
      {
        name = "count.net_events";
        value = float_of_int q.net_events /. n;
        unit_ = "1/req";
      };
      {
        name = "ratio.dp_success";
        value =
          ratio
            (counter p "phase_walk.matchings_exact")
            (sum [ "phase_walk.matchings_exact"; "phase_walk.matchings_mcmc" ]);
        unit_ = "fraction";
      };
      {
        name = "ratio.cache_hit";
        value =
          ratio
            (counter p "server.cache.hit")
            (sum [ "server.cache.hit"; "server.cache.miss" ]);
        unit_ = "fraction";
      };
      { name = "rounds_per_req"; value = p.rounds /. n; unit_ = "rounds" };
      (* The same requests in both passes, timed with calibration. *)
      { name = "obs.overhead_frac"; value = (total q /. total r) -. 1.0; unit_ = "fraction" };
    ]

(* Runs [f] in a child process while [g] runs in this one, and returns
   both results once the child has ended. The child's result comes back
   marshalled through a pipe; an exception on either side ends the child
   and is raised here. OCaml cannot fork once a domain has been spawned, so
   this is only called with a one-domain engine. *)
let in_parallel (f : unit -> 'a) (g : unit -> 'b) : 'a * 'b =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (result : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let reaped = ref false in
      let reap () =
        if not !reaped then begin
          reaped := true;
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid)
        end
      in
      let kill () =
        if not !reaped then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap ()
      in
      Fun.protect ~finally:kill @@ fun () ->
      let mine = g () in
      let theirs : ('a, string) result =
        try Marshal.from_channel ic with End_of_file -> Error "lane ended without a result"
      in
      reap ();
      match theirs with Ok r -> (r, mine) | Error e -> failwith ("second lane: " ^ e)

(* Two lanes when the engine runs on one domain and the host has a vCPU
   for each; otherwise one. *)
let lane_count ~domains = if domains = 1 && Domain.recommended_domain_count () >= 2 then 2 else 1

let run (w : W.t) ~size ~seed ~domains ~limit ~trace =
  if not trace then begin
    let batch = batch w ~passes:1 limit in
    let most = match size with W.Full -> 25 | W.Toy -> 1 in
    let lane ~check () =
      let burst () = setup_burst w ~size ~seed ~domains ~batch ~most in
      let before = burst () in
      let p = run_pass w ~size ~seed ~domains ~batch ~traced:false ~check in
      { pass = p; setups = before @ burst () }
    in
    let lanes =
      if lane_count ~domains = 2 then
        let other, mine = in_parallel (lane ~check:false) (lane ~check:true) in
        [ mine; other ]
      else [ lane ~check:true () ]
    in
    let passes = List.map (fun l -> l.pass) lanes in
    {
      attempted = attempted passes;
      failed = failed passes;
      metrics = plain w lanes;
      info = info (List.hd passes) ~passes ~label:"lanes";
      spans = [];
      tiling = Float.nan;
    }
  end
  else begin
    let batch = batch w ~passes:3 limit in
    let pass ~traced ~check = run_pass w ~size ~seed ~domains ~batch ~traced ~check in
    let p = pass ~traced:false ~check:true in
    let q = pass ~traced:true ~check:false in
    let r = pass ~traced:false ~check:false in
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 q.self in
    {
      attempted = attempted [ p; q; r ];
      failed = failed [ p; q; r ];
      metrics = per_layer p q r;
      info = info p ~passes:[ p; q; r ] ~label:"passes";
      spans =
        List.map
          (fun (span, s) -> (span, s *. 1000.0 /. float_of_int (Array.length q.latencies)))
          q.self;
      tiling = Float.abs (total -. q.wall) /. q.wall;
    }
  end
