(* cctree — command-line driver for the Congested Clique spanning-tree
   sampler and its substrates.

   Subcommands:
     sample    sample spanning trees with the sublinear-round algorithm
     doubling  sample via the load-balanced doubling walk (Corollaries 1-2)
     walk      run/inspect random walks and cover times
     schur     print SCHUR(G,S) and SHORTCUT(G,S) transition matrices
     count     count spanning trees (Matrix-Tree)
     pagerank  estimate PageRank from doubling walks
     sparsify  sparsify by a reweighted union of random spanning trees
     congest   compare the CONGEST-model walk baselines

   Graphs come either from a named family (-f family -n size) or from a file
   in the line format of Graph.of_string ("n <count>" then "e u v [w]"). *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Prng = Cc_util.Prng
module Sampler = Cc_sampler.Sampler
module Doubling = Cc_doubling.Doubling
module Methods = Cc_serve.Methods
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* Invalid flag values exit with the conventional usage code 2 and a
   one-line message — not cmdliner's 124, and never a traceback. *)
let exit_usage = 2

let fail_usage msg =
  prerr_endline ("cctree: " ^ msg);
  exit exit_usage

(* --- common options --- *)

let seed_t =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let weights_t =
  let doc =
    "Reweight each edge with a uniform integer weight in [1, $(docv)] \
     (footnote 1's bounded-integer-weight extension)."
  in
  Arg.(value & opt (some int) None & info [ "weights" ] ~doc ~docv:"W")

let family_t =
  let doc =
    "Graph family: path, cycle, complete, star, grid, btree, lollipop, \
     barbell, er:<p>, erlog:<c>, regular:<d>."
  in
  Arg.(value & opt (some string) None & info [ "f"; "family" ] ~doc)

let size_t =
  let doc = "Number of vertices for a generated family." in
  Arg.(value & opt int 16 & info [ "n"; "size" ] ~doc)

let file_t =
  let doc = "Read the graph from $(docv) instead of generating one." in
  Arg.(value & opt (some string) None & info [ "g"; "graph" ] ~doc ~docv:"FILE")

(* --- fault-injection options (shared by sample / doubling) --- *)

(* The syntax of a crash spec; [faults_t] checks its range. *)
let crash_conv =
  let parse s =
    let fail () =
      Error
        (`Msg (Printf.sprintf "invalid crash spec %S (expected 'M' or 'M@R')" s))
    in
    match String.index_opt s '@' with
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            float_of_string_opt
              (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some m, Some r -> Ok (m, r)
        | _ -> fail ())
    | None -> (
        match int_of_string_opt s with Some m -> Ok (m, 0.0) | None -> fail ())
  in
  let print ppf (m, r) = Format.fprintf ppf "%d@%g" m r in
  Arg.conv (parse, print)

let faults_t =
  let prob_t name doc =
    Arg.(value & opt float 0.0 & info [ name ] ~doc ~docv:"P")
  in
  let drop_t = prob_t "drop-prob" "Per-message drop probability in [0, 1)." in
  let corrupt_t =
    prob_t "corrupt-prob" "Per-message payload-corruption probability in [0, 1)."
  in
  let straggle_t =
    prob_t "straggle-prob" "Per-primitive straggler probability in [0, 1)."
  in
  let crash_t =
    let doc =
      "Crash machine $(docv) permanently ('M@R' = machine M at round R; a \
       bare 'M' crashes at round 0). Repeatable."
    in
    Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~doc ~docv:"M@R")
  in
  let fault_seed_t =
    let doc =
      "Seed of the fault schedule; the same --seed/--fault-seed pair \
       reproduces the run bit-for-bit, faults included."
    in
    Arg.(
      value & opt int Fault.default_spec.seed & info [ "fault-seed" ] ~doc)
  in
  let max_retries_t =
    let doc = "Retransmission budget per packet before it is declared lost." in
    Arg.(
      value
      & opt int Fault.default_spec.max_retries
      & info [ "max-retries" ] ~doc)
  in
  let combine drop_prob corrupt_prob straggle_prob crashes seed max_retries =
    let check_prob flag p =
      if not (p >= 0.0 && p < 1.0) then fail_usage (flag ^ " must be in [0, 1)")
    in
    check_prob "--drop-prob" drop_prob;
    check_prob "--corrupt-prob" corrupt_prob;
    check_prob "--straggle-prob" straggle_prob;
    List.iter
      (fun (m, r) ->
        if not (m >= 0 && r >= 0.0) then
          fail_usage
            (Printf.sprintf "--crash %d@%g: machine and round must be >= 0" m r))
      crashes;
    if max_retries < 0 then fail_usage "--max-retries must be >= 0";
    Fault.spec ~drop_prob ~corrupt_prob ~straggle_prob ~max_retries ~crashes
      ~seed ()
  in
  Term.(
    const combine $ drop_t $ corrupt_t $ straggle_t $ crash_t $ fault_seed_t
    $ max_retries_t)

(* The net stays reliable (no injector) unless the spec injects something;
   a fault seed or retry budget alone changes nothing. *)
let injector (spec : Fault.spec) =
  if
    spec.drop_prob = 0.0 && spec.corrupt_prob = 0.0 && spec.straggle_prob = 0.0
    && spec.crashes = []
  then None
  else Some (Fault.create spec)

let arm_faults faults net =
  match faults with
  | None -> net
  | Some f -> (
      try Net.with_faults f net
      with Invalid_argument m -> fail_usage ("--crash: " ^ m))

let print_fault_summary faults net =
  if faults <> None then Format.printf "# %a@." Net.pp_fault_summary net

(* --- observability options (shared by sample / doubling / pagerank) --- *)

type obs = {
  trace_out : string option;  (* trace artifact (JSONL) path *)
  trace_tree : bool;
  metrics : bool;
  metrics_json : string option;  (* registry JSON dump path *)
  profile : bool;  (* print the machine x label heatmap *)
  record : string option;  (* flight-recorder JSONL path *)
}

let obs_t =
  let trace_out_t =
    let doc =
      "Write the trace artifact (JSON lines) to $(docv): one line per span, \
       under a root $(i,run) span covering the whole run, each with the \
       rounds, messages, words and peak load booked while it was open. \
       $(b,ccprof trace) prints its self time by span and gates it with \
       $(b,--budget); $(b,ccprof timeline) turns it into Chrome/Perfetto \
       JSON."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")
  in
  let tree_t =
    let doc =
      "Print the span tree (wall clock, allocation, rounds/messages/words \
       per span) after the run."
    in
    Arg.(value & flag & info [ "trace-tree" ] ~doc)
  in
  let metrics_t =
    let doc =
      "Print the metrics registry (counters/gauges/histograms; histograms \
       with p50/p95/p99)."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let metrics_json_t =
    let doc =
      "Write the metrics registry as a JSON object keyed by instrument name \
       to $(docv) — readable by $(b,ccprof summary)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~doc ~docv:"FILE")
  in
  let profile_t =
    let doc =
      "Print the per-machine load profile as a machine x label congestion \
       heatmap after the run. $(b,ccprof heatmap) renders the same heatmap \
       from a $(b,--record) log."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let record_t =
    let doc =
      "Attach the flight recorder and the online invariant monitor to the \
       run and write the recorded event log (JSON lines with a chain \
       digest) to $(docv) — replayable with ccprof replay \
       check/diff/timeline. Invariant violations are listed on stderr and \
       the run exits 1."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~doc ~docv:"FILE")
  in
  let combine trace_out trace_tree metrics metrics_json profile record =
    { trace_out; trace_tree; metrics; metrics_json; profile; record }
  in
  Term.(
    const combine $ trace_out_t $ tree_t $ metrics_t $ metrics_json_t
    $ profile_t $ record_t)

(* Exit code for a recorded run whose log breaks an invariant (online
   monitor or [Net.ledger_violations]): the log is still written, but the
   run's accounting cannot be trusted. *)
let exit_violation = 1

(* Run [f] with a trace collector, recorder and load profile attached when
   requested, then write the requested exports and print the heatmap.
   Observability never perturbs the run: spans, records, and the profile only
   observe the booked costs. A recording with invariant violations exits [exit_violation] once
   every export is written. *)
let with_obs obs net f =
  let tr =
    if obs.trace_out <> None || obs.trace_tree then
      Some (Cc_obs.Trace.create ())
    else None
  in
  let recording =
    match obs.record with
    | None -> None
    | Some path ->
        let r = Cc_obs.Recorder.create ~machines:(Net.n net) () in
        let inv = Cc_obs.Invariant.create ~machines:(Net.n net) () in
        Net.add_sink net (Cc_obs.Recorder.add r);
        Net.add_sink net (fun r -> ignore (Cc_obs.Invariant.observe inv r));
        Some (path, r, inv)
  in
  let profile =
    if obs.profile then begin
      let p = Cc_obs.Profile.create ~machines:(Net.n net) in
      Net.add_sink net (Cc_obs.Profile.add p);
      Some p
    end
    else None
  in
  let violated = ref false in
  let finish () =
    (match tr with
    | None -> ()
    | Some t ->
        (match obs.trace_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Cc_obs.Trace.to_jsonl t);
            close_out oc
        | None -> ());
        if obs.trace_tree then Format.printf "%a@?" Cc_obs.Trace.pp_tree t);
    if obs.metrics then Format.printf "%a@?" Cc_obs.Metrics.pp ();
    (match obs.metrics_json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Cc_obs.Json.to_string (Cc_obs.Metrics.to_json ()));
        output_char oc '\n';
        close_out oc);
    (match recording with
    | None -> ()
    | Some (path, r, inv) ->
        let oc = open_out path in
        output_string oc (Cc_obs.Recorder.to_jsonl r);
        close_out oc;
        let vs =
          Cc_obs.Invariant.violations inv @ Net.ledger_violations net inv
        in
        Format.eprintf "# recorded %d events -> %s (digest %s)@."
          (Cc_obs.Recorder.total r) path
          (Cc_obs.Recorder.digest_hex r);
        if vs <> [] then begin
          violated := true;
          Format.eprintf "# %d invariant violation(s):@." (List.length vs);
          List.iter
            (fun v -> Format.eprintf "#   %a@." Cc_obs.Invariant.pp_violation v)
            vs
        end);
    Option.iter
      (fun p -> Format.printf "%s@?" (Cc_obs.Profile.render p))
      profile
  in
  (* The artifact gets a root [run] span covering everything, so the self
     times of its spans tile end-to-end wall. *)
  let f =
    match tr with
    | None -> f
    | Some t ->
        let f =
          if obs.trace_out <> None then fun () -> Cc_obs.Trace.with_span "run" f
          else f
        in
        fun () -> Cc_obs.Trace.with_trace t f
  in
  let r = Fun.protect ~finally:finish f in
  if !violated then exit exit_violation;
  r

(* Exit code for a run whose health degraded to [Unrecoverable]: the tree is
   still exact (sequential fallback), but the distributed pipeline gave up. *)
let exit_unrecoverable = 3

let exit_for_health = function
  | Fault.Unrecoverable _ -> true
  | Fault.Healthy | Fault.Healed _ -> false

(* A graph that cannot be built — unknown family, bad family parameter, a
   size the family rejects, an unreadable or malformed -g file, or one with
   fewer than 2 vertices, as no family builds — is a usage error. *)
let load_graph ?weights ~family ~size ~file ~prng () =
  let usage what = function
    | Invalid_argument m | Failure m | Sys_error m ->
        fail_usage (what ^ ": " ^ m)
    | e -> raise e
  in
  let g =
    match (file, family) with
    | Some path, _ -> (
        let what = "-g " ^ path in
        match
          Graph.of_string (In_channel.with_open_bin path In_channel.input_all)
        with
        | g when Graph.n g < 2 -> fail_usage (what ^ ": need at least 2 vertices")
        | g -> g
        (* A failed open's message already starts with the path, a failed
           read's does not: name it once either way. *)
        | exception Sys_error m ->
            let prefix = path ^ ": " in
            fail_usage
              (what ^ ": "
              ^
              if String.starts_with ~prefix m then
                String.sub m (String.length prefix)
                  (String.length m - String.length prefix)
              else m)
        | exception e -> usage what e)
    | None, fam -> (
        let fam = Option.value fam ~default:"lollipop" in
        try Gen.build prng (Gen.family_of_string fam) ~n:size
        with e -> usage (Printf.sprintf "-f %s -n %d" fam size) e)
  in
  match weights with
  | None -> g
  | Some w -> (
      try Gen.random_weights prng g ~max_weight:w
      with e -> usage "--weights" e)

(* Sampling a tree or covering the graph needs every vertex reachable: the
   samplers refuse a disconnected graph and a cover walk never ends on one. *)
let require_connected g =
  if not (Graph.is_connected g) then fail_usage "the graph is not connected"

(* A walk cannot leave a vertex with no neighbour. *)
let require_neighbours g v =
  if Array.length (Graph.neighbors g v) = 0 then
    fail_usage (Printf.sprintf "vertex %d is isolated" v)

(* SCHUR(G, S) is defined only when every component of G meets S: search
   from S and require every vertex found. *)
let require_meets_every_component g ~in_s =
  let seen = Array.copy in_s and queue = Queue.create () in
  Array.iteri (fun u s -> if s then Queue.add u queue) in_s;
  while not (Queue.is_empty queue) do
    Array.iter
      (fun (v, _) ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (Graph.neighbors g (Queue.pop queue))
  done;
  if not (Array.for_all Fun.id seen) then
    fail_usage "--subset: a component of the graph has no vertex in S"

let print_tree tree =
  List.iter (fun (u, v) -> Printf.printf "%d %d\n" u v) (Tree.edges tree)

(* --- audit trailer (stderr, so stdout stays byte-identical) --- *)

(* Write the artifact unless [spec] is "-", then print the verdict. *)
let finish_audit (spec, a) =
  let module Audit = Cc_audit.Audit in
  if spec <> "-" then begin
    let oc = open_out spec in
    output_string oc (Audit.to_jsonl a);
    close_out oc
  end;
  let v = Audit.verdict a in
  Format.eprintf "# audit: %s after %d tree(s); max |z| %.2f (threshold %.2f)%s@."
    (if v.Audit.pass then "PASS" else "FAIL")
    v.Audit.at_trials (Audit.max_z a) (Audit.z_threshold a)
    (match Audit.small_tv a with
    | Some tv -> Printf.sprintf "; exact-distribution TV %.4f" tv
    | None -> "");
  List.iter
    (fun g ->
      if g.Audit.applied && g.Audit.breached then
        Format.eprintf "# audit breach: %s (%.3f > %.3f) — %s@." g.Audit.gate
          g.Audit.statistic g.Audit.threshold g.Audit.detail)
    v.Audit.gates

(* --- client mode: forward the request to a running ccserve --- *)

(* A request carries only the graph, k, seed and method: a flag it cannot
   carry is refused (naming the first one given) instead of being dropped. *)
let refuse_over_connect given =
  match List.find_opt snd given with
  | Some (flag, _) ->
      fail_usage
        (flag
       ^ " cannot be used with --connect (a request carries only the graph, \
          k, seed and method)")
  | None -> ()

let run_connect ~sock ~g ~k ~seed ~meth =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      fail_usage (Printf.sprintf "--connect %s: %s" sock (Unix.error_message e)));
  let req = Cc_serve.Protocol.request_line ~graph:g ~k ~seed ~meth () in
  let off = ref 0 in
  while !off < String.length req do
    off := !off + Unix.write_substring fd req !off (String.length req - !off)
  done;
  (* The header field carries the exact bytes a one-shot run would print,
     so stdout below is byte-identical to [cctree sample --count k]. *)
  let ic = Unix.in_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
        prerr_endline "cctree: server closed the connection mid-request";
        exit exit_unrecoverable
    | line -> (
        match Cc_serve.Protocol.parse_response line with
        | Ok (Cc_serve.Protocol.Tree { header; edges; _ }) ->
            print_string header;
            List.iter (fun (u, v) -> Printf.printf "%d %d\n" u v) edges;
            loop ()
        | Ok (Cc_serve.Protocol.Done { cache_hit; digest; rounds; _ }) ->
            Format.eprintf "# server: cache %s, digest %s, rounds %.0f@."
              (if cache_hit then "hit" else "miss")
              digest rounds
        | Ok (Cc_serve.Protocol.Error { message; _ }) ->
            prerr_endline ("cctree: server error: " ^ message);
            exit exit_unrecoverable
        | Error m ->
            prerr_endline ("cctree: bad server response: " ^ m);
            exit exit_unrecoverable)
  in
  loop ();
  close_in ic

(* --- sample --- *)

let sample_cmd =
  let trials_t =
    let doc =
      "Sample $(docv) trees, every one from the master stream (the default, \
       with $(docv) = 1)."
    in
    Arg.(value & opt (some int) None & info [ "trials" ] ~doc ~docv:"K")
  in
  let ledger_t =
    Arg.(value & flag & info [ "ledger" ] ~doc:"Print the per-label round ledger.")
  in
  let alpha_t =
    Arg.(
      value
      & opt float Cc_clique.Matmul.default_alpha
      & info [ "alpha" ]
          ~doc:"Matrix-multiplication exponent for the charged backend, in [0, 1].")
  in
  let bits_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "bits" ] ~doc:"Fixed-point fractional bits (Section 3.5); default exact.")
  in
  let method_t =
    let doc =
      "Sampler: "
      ^ String.concat ", "
          (List.map
             (fun m -> Printf.sprintf "%s (%s)" (Methods.name m) (Methods.doc m))
             Methods.all)
      ^ "."
    in
    Arg.(value & opt string Methods.(name Cc) & info [ "method" ] ~doc)
  in
  let count_t =
    let doc =
      "Sample $(docv) trees in one process reusing one prepared plan \
       (prepare once, draw $(docv) times). Unlike --trials, tree $(i,i) \
       draws from the $(i,i)-th sequential split of the master seed, so \
       its bytes are independent of $(docv) — and identical to what a \
       ccserve request with the same seed streams back."
    in
    Arg.(value & opt (some int) None & info [ "count" ] ~doc ~docv:"K")
  in
  let connect_t =
    let doc =
      "Client mode: send the request to the ccserve daemon at socket \
       $(docv) instead of sampling locally, and print the streamed trees \
       (stdout is byte-identical to a local --count run; the server's \
       cache verdict and recorder digest go to stderr)."
    in
    Arg.(
      value & opt (some string) None & info [ "connect" ] ~doc ~docv:"SOCK")
  in
  let audit_t =
    let doc =
      "Attach the statistical auditor: accumulate per-edge inclusion counts \
       across the sampled trees and compare them against the exact \
       leverage-score marginals (plus the full tree distribution on small \
       instances). With a $(docv), write the JSONL audit artifact there \
       (readable by $(b,ccprof audit)); with '-' (the default value) only \
       the verdict summary is printed, on stderr. Zero-perturbation: the \
       sampled trees, stdout, and recorder digests are byte-identical with \
       and without this flag."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "audit" ] ~doc ~docv:"FILE")
  in
  let run seed verbose family size file weights trials ledger alpha bits
      method_ count connect audit (fault_spec : Fault.spec) obs =
    setup_logs verbose;
    let meth =
      match Methods.of_string method_ with
      | Ok m -> m
      | Error e -> fail_usage ("--method: " ^ e)
    in
    (match bits with
    | Some b when b < 1 -> fail_usage "--bits must be >= 1"
    | _ -> ());
    if not (alpha >= 0.0 && alpha <= 1.0) then
      fail_usage "--alpha must be in [0, 1]";
    (* [split]: tree t draws from the t-th split of the master stream. *)
    let k, split =
      match (count, trials) with
      | Some _, Some _ -> fail_usage "--count and --trials cannot be used together"
      | Some k, None when k < 1 -> fail_usage "--count must be >= 1"
      | None, Some k when k < 1 -> fail_usage "--trials must be >= 1"
      | Some k, None -> (k, true)
      | None, Some k -> (k, false)
      | None, None -> (1, false)
    in
    let prng = Prng.create ~seed in
    let g = load_graph ?weights ~family ~size ~file ~prng () in
    require_connected g;
    match connect with
    | Some sock ->
        let d = Fault.default_spec in
        refuse_over_connect
          [
            ("--alpha", alpha <> Cc_clique.Matmul.default_alpha);
            ("--bits", bits <> None);
            ("--ledger", ledger);
            ("--audit", audit <> None);
            ("--drop-prob", fault_spec.drop_prob <> d.drop_prob);
            ("--corrupt-prob", fault_spec.corrupt_prob <> d.corrupt_prob);
            ("--straggle-prob", fault_spec.straggle_prob <> d.straggle_prob);
            ("--crash", fault_spec.crashes <> d.crashes);
            ("--fault-seed", fault_spec.seed <> d.seed);
            ("--max-retries", fault_spec.max_retries <> d.max_retries);
            ("--trace-out", obs.trace_out <> None);
            ("--trace-tree", obs.trace_tree);
            ("--metrics", obs.metrics);
            ("--metrics-json", obs.metrics_json <> None);
            ("--profile", obs.profile);
            ("--record", obs.record <> None);
          ];
        run_connect ~sock ~g ~k ~seed ~meth
    | None ->
    let faults = injector fault_spec in
    let net = arm_faults faults (Net.create ~n:(Graph.n g)) in
    let auditor = Option.map (fun spec -> (spec, Cc_audit.Audit.create g)) audit in
    let config =
      {
        Sampler.default_config with
        backend = Cc_clique.Matmul.charged ~alpha ();
        bits;
      }
    in
    let unrecoverable = ref false in
    with_obs obs net (fun () ->
    (* Prepare once, draw k times. Under --count tree t draws from the t-th
       sequential split of the master stream, so its bytes don't depend on
       the count and match what a ccserve request with the same seed
       streams back; under --trials every tree draws from the master
       stream itself. *)
    let plan = Methods.prepare ~config meth g in
    for t = 1 to k do
      let d =
        try plan t net (if split then Prng.split prng else prng)
        with
        (* At too few --bits all of a walk law's truncated probabilities
           can round to zero, which Phase_walk detects and says. *)
        | Failure m
          when bits <> None
               && String.starts_with ~prefix:"Phase_walk: truncated" m ->
          fail_usage
            (Printf.sprintf "--bits %d is too few for this graph: %s"
               (Option.get bits) m)
      in
      print_string d.Methods.header;
      Option.iter
        (fun h ->
          if faults <> None then Format.printf "# health: %a@." Fault.pp_health h;
          if exit_for_health h then unrecoverable := true)
        d.Methods.health;
      (* Every printed tree is also the auditor's next observation. *)
      print_tree d.Methods.tree;
      Option.iter (fun (_, a) -> Cc_audit.Audit.observe a d.Methods.tree) auditor
    done;
    print_fault_summary faults net;
    if ledger then Format.printf "%a@." Net.pp_ledger net;
    Option.iter finish_audit auditor);
    if !unrecoverable then exit exit_unrecoverable
  in
  let info =
    Cmd.info "sample"
      ~doc:"Sample spanning trees (Theorem 2 sampler by default; see --method)."
  in
  Cmd.v info
    Term.(
      const run $ seed_t $ verbose_t $ family_t $ size_t $ file_t $ weights_t
      $ trials_t $ ledger_t $ alpha_t $ bits_t $ method_t $ count_t
      $ connect_t $ audit_t $ faults_t $ obs_t)

(* --- doubling --- *)

let doubling_cmd =
  let tau_t =
    Arg.(value & opt int 0 & info [ "tau" ] ~doc:"Walk length (0 = sample a tree instead).")
  in
  let run seed family size file tau fault_spec obs =
    if tau < 0 then fail_usage "--tau must be >= 0";
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    let n = Graph.n g in
    if tau = 0 then require_connected g
    else for v = 0 to n - 1 do require_neighbours g v done;
    let faults = injector fault_spec in
    let net = arm_faults faults (Net.create ~n) in
    let unrecoverable = ref false in
    with_obs obs net (fun () ->
    if tau > 0 then begin
      let r = Doubling.run net prng g ~tau ~scheme:Doubling.Load_balanced in
      Printf.printf "# %d iterations, %.0f rounds; walk from vertex 0:\n"
        r.Doubling.iterations r.Doubling.rounds;
      if faults <> None then
        Format.printf "# health: %a@." Fault.pp_health r.Doubling.health;
      if exit_for_health r.Doubling.health then unrecoverable := true;
      Array.iter (fun v -> Printf.printf "%d " v) r.Doubling.walks.(0);
      print_newline ()
    end
    else begin
      let tree, walk_len = Doubling.sample_tree net prng g ~tau0:n in
      Printf.printf "# tree via doubling: %.0f rounds, walk length %d\n"
        (Net.rounds net) walk_len;
      print_tree tree
    end;
    print_fault_summary faults net);
    if !unrecoverable then exit exit_unrecoverable
  in
  let info =
    Cmd.info "doubling"
      ~doc:"Load-balanced doubling walks and Corollary 1-2 tree sampling."
  in
  Cmd.v info
    Term.(
      const run $ seed_t $ family_t $ size_t $ file_t $ tau_t $ faults_t
      $ obs_t)

(* --- walk --- *)

let walk_cmd =
  let len_t = Arg.(value & opt int 0 & info [ "len" ] ~doc:"Walk length (0 = measure cover time).") in
  let trials_t = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Cover-time trials.") in
  let run seed family size file len trials =
    if trials < 1 then fail_usage "--trials must be >= 1";
    if len < 0 then fail_usage "--len must be >= 0";
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    if len = 0 then require_connected g else require_neighbours g 0;
    if len > 0 then begin
      let w = Cc_walks.Walk.walk g prng ~start:0 ~len in
      Array.iter (fun v -> Printf.printf "%d " v) w;
      print_newline ()
    end
    else
      Printf.printf "mean cover time over %d trials: %.1f steps (n=%d, m=%d)\n"
        trials
        (Cc_walks.Walk.mean_cover_time g prng ~trials)
        (Graph.n g) (Graph.num_edges g)
  in
  let info = Cmd.info "walk" ~doc:"Random walks and cover times." in
  Cmd.v info Term.(const run $ seed_t $ family_t $ size_t $ file_t $ len_t $ trials_t)

(* --- schur --- *)

let schur_cmd =
  let s_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "subset" ] ~doc:"Comma-separated vertex subset S (default: even vertices).")
  in
  let run seed family size file s_spec =
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    let n = Graph.n g in
    let vertex x =
      match int_of_string_opt x with
      | Some v -> v
      | None -> fail_usage (Printf.sprintf "--subset: %S is not a vertex" x)
    in
    let s =
      match s_spec with
      | Some spec -> Array.of_list (List.map vertex (String.split_on_char ',' spec))
      | None -> Array.of_list (List.filter (fun v -> v mod 2 = 0) (List.init n (fun v -> v)))
    in
    Array.sort compare s;
    let in_s =
      try Cc_schur.Schur.members ~n ~s
      with Invalid_argument m -> fail_usage ("--subset: " ^ m)
    in
    require_meets_every_component g ~in_s;
    Format.printf "S = [%s]@."
      (String.concat "; " (List.map string_of_int (Array.to_list s)));
    Format.printf "@.SCHUR(G,S) transition matrix (rows/cols in S order):@.%a@."
      Cc_linalg.Mat.pp
      (Cc_schur.Schur.transition_exact g ~s);
    Format.printf "@.SHORTCUT(G,S) transition matrix (n x n):@.%a@."
      Cc_linalg.Mat.pp
      (Cc_schur.Shortcut.exact g ~in_s)
  in
  let info = Cmd.info "schur" ~doc:"Print SCHUR(G,S) and SHORTCUT(G,S)." in
  Cmd.v info
    Term.(const run $ seed_t $ family_t $ size_t $ file_t $ s_t)

(* --- count --- *)

let count_cmd =
  let run seed family size file =
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    let log_count = Tree.log_count g in
    Printf.printf "spanning trees: %.6g (log = %.4f)\n" (Float.exp log_count) log_count
  in
  let info = Cmd.info "count" ~doc:"Count spanning trees via the Matrix-Tree theorem." in
  Cmd.v info Term.(const run $ seed_t $ family_t $ size_t $ file_t)

(* --- pagerank --- *)

let pagerank_cmd =
  let eps_t = Arg.(value & opt float 0.15 & info [ "epsilon" ] ~doc:"Restart probability.") in
  let walks_t = Arg.(value & opt int 32 & info [ "walks" ] ~doc:"Walks per vertex.") in
  let run seed family size file epsilon walks obs =
    if not (epsilon > 0.0 && epsilon < 1.0) then
      fail_usage "--epsilon must be in (0, 1)";
    if walks < 1 then fail_usage "--walks must be >= 1";
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    let n = Graph.n g in
    for v = 0 to n - 1 do require_neighbours g v done;
    let net = Net.create ~n in
    with_obs obs net (fun () ->
    let est = Doubling.pagerank net prng g ~walks_per_node:walks ~epsilon in
    let exact = Doubling.pagerank_exact g ~epsilon in
    Printf.printf "# rounds: %.0f\n# vertex estimate exact\n" (Net.rounds net);
    Array.iteri (fun v x -> Printf.printf "%d %.6f %.6f\n" v x exact.(v)) est)
  in
  let info = Cmd.info "pagerank" ~doc:"PageRank from doubling walks vs power iteration." in
  Cmd.v info
    Term.(
      const run $ seed_t $ family_t $ size_t $ file_t $ eps_t $ walks_t
      $ obs_t)

(* --- congest --- *)

let congest_cmd =
  let run seed family size file =
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    require_connected g;
    let cnet = Cc_congest.Cnet.create g in
    let naive = Cc_congest.Congest_walk.step_by_step cnet prng in
    let cnet2 = Cc_congest.Cnet.create g in
    let lambda =
      Cc_congest.Congest_walk.auto_lambda cnet2
        ~walk_estimate:(max 16 naive.Cc_congest.Congest_walk.walk_length)
    in
    let st = Cc_congest.Congest_walk.das_sarma cnet2 prng ~lambda ~eta:4 in
    Printf.printf
      "CONGEST (D = %d):\n  step-by-step: %.0f rounds (walk %d)\n  \
       das-sarma stitched (lambda=%d): %.0f rounds (walk %d, %d stitches)\n"
      (Cc_congest.Cnet.depth cnet)
      naive.Cc_congest.Congest_walk.rounds naive.Cc_congest.Congest_walk.walk_length
      lambda st.Cc_congest.Congest_walk.rounds st.Cc_congest.Congest_walk.walk_length
      st.Cc_congest.Congest_walk.stitches
  in
  let info =
    Cmd.info "congest"
      ~doc:"Compare the CONGEST-model walk baselines (related work)."
  in
  Cmd.v info Term.(const run $ seed_t $ family_t $ size_t $ file_t)

(* --- sparsify --- *)

let sparsify_cmd =
  let trees_t =
    Arg.(value & opt int 4 & info [ "trees" ] ~doc:"Number of spanning trees to union.")
  in
  let run seed family size file trees =
    if trees < 1 then fail_usage "--trees must be >= 1";
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    require_connected g;
    let h =
      Cc_apps.Sparsifier.union prng
        (fun g prng -> Cc_walks.Wilson.sample_tree g prng)
        g ~trees ~reweight:true
    in
    let q = Cc_apps.Sparsifier.evaluate prng g h ~probes:300 in
    Printf.printf
      "# %d trees: kept %d/%d edges; cut ratios [%.3f, %.3f]; Rayleigh [%.3f, %.3f]\n"
      trees q.Cc_apps.Sparsifier.edges_kept (Graph.num_edges g)
      q.Cc_apps.Sparsifier.cut_ratio_min q.Cc_apps.Sparsifier.cut_ratio_max
      q.Cc_apps.Sparsifier.rayleigh_min q.Cc_apps.Sparsifier.rayleigh_max;
    print_string (Graph.to_string h)
  in
  let info =
    Cmd.info "sparsify" ~doc:"Sparsify by a reweighted union of random spanning trees."
  in
  Cmd.v info Term.(const run $ seed_t $ family_t $ size_t $ file_t $ trees_t)

let main =
  let doc = "Spanning-tree sampling in the Congested Clique (PODC 2025 reproduction)." in
  let info = Cmd.info "cctree" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ sample_cmd; doubling_cmd; walk_cmd; schur_cmd; count_cmd; pagerank_cmd;
      sparsify_cmd; congest_cmd ]

let () = exit (Cmd.eval main)
