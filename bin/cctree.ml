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
  Arg.(value & opt (some file) None & info [ "g"; "graph" ] ~doc ~docv:"FILE")

(* --- fault-injection options (shared by sample / doubling) --- *)

let prob_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p < 1.0 -> Ok p
    | Some _ -> Error (`Msg "probability must be in [0, 1)")
    | None -> Error (`Msg (Printf.sprintf "invalid probability %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

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
        | Some m, Some r when m >= 0 && r >= 0.0 -> Ok (m, r)
        | _ -> fail ())
    | None -> (
        match int_of_string_opt s with
        | Some m when m >= 0 -> Ok (m, 0.0)
        | _ -> fail ())
  in
  let print ppf (m, r) = Format.fprintf ppf "%d@%g" m r in
  Arg.conv (parse, print)

let faults_t =
  let drop_t =
    let doc = "Per-message drop probability in [0, 1)." in
    Arg.(value & opt prob_conv 0.0 & info [ "drop-prob" ] ~doc ~docv:"P")
  in
  let corrupt_t =
    let doc = "Per-message payload-corruption probability in [0, 1)." in
    Arg.(value & opt prob_conv 0.0 & info [ "corrupt-prob" ] ~doc ~docv:"P")
  in
  let straggle_t =
    let doc = "Per-primitive straggler probability in [0, 1)." in
    Arg.(value & opt prob_conv 0.0 & info [ "straggle-prob" ] ~doc ~docv:"P")
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
      "Write the trace artifact (JSON lines) to $(docv): one line per span \
       and per metered Net primitive, under a root $(i,run) span covering \
       the whole run. $(b,ccprof timeline) turns it into Chrome/Perfetto \
       JSON; $(b,ccprof trace) and $(b,ccprof critical-path) analyze it."
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
       digest) to $(docv) — replayable with ccreplay check/diff/timeline. \
       Invariant violations are listed on stderr and the run exits 1."
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
   Observability never perturbs the run: spans, events, and the profile only
   observe the booked costs. A recording with invariant violations exits [exit_violation] once
   every export is written. *)
let with_obs obs net f =
  let tr =
    if obs.trace_out <> None || obs.trace_tree then
      Some (Cc_obs.Trace.create ())
    else None
  in
  (match tr with Some t -> Cc_obs.Trace.install t | None -> ());
  let recording =
    match obs.record with
    | None -> None
    | Some path ->
        let r = Cc_obs.Recorder.create ~machines:(Net.n net) () in
        let inv = Cc_obs.Invariant.create ~machines:(Net.n net) () in
        ignore (Net.attach_recorder net r);
        ignore (Net.attach_invariant net inv);
        Some (path, r, inv)
  in
  let profile =
    if obs.profile then begin
      let p = Cc_obs.Profile.create ~machines:(Net.n net) in
      ignore (Net.attach_profile net p);
      Some p
    end
    else None
  in
  let violated = ref false in
  let finish () =
    Cc_obs.Trace.uninstall ();
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
  (* The artifact gets a root [run] span covering everything, so the
     critical-path chain can tile end-to-end wall. *)
  let f =
    if obs.trace_out <> None then fun () -> Cc_obs.Trace.with_span "run" f
    else f
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
   size the family rejects, a malformed -g file — is a usage error. *)
let load_graph ?weights ~family ~size ~file ~prng () =
  let usage what = function
    | Invalid_argument m | Failure m -> fail_usage (what ^ ": " ^ m)
    | e -> raise e
  in
  let g =
    match (file, family) with
    | Some path, _ -> (
        let ic = open_in path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        try Graph.of_string s with e -> usage ("-g " ^ path) e)
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

let run_connect ~sock ~g ~k ~seed ~method_ =
  let meth =
    match String.lowercase_ascii method_ with
    | "cc" -> Cc_serve.Protocol.Cc
    | "sequential" -> Cc_serve.Protocol.Sequential
    | "doubling" -> Cc_serve.Protocol.Doubling
    | m -> fail_usage ("--connect supports cc|sequential|doubling, got " ^ m)
  in
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
    Arg.(value & opt int 1 & info [ "trials" ] ~doc:"Number of trees to sample.")
  in
  let ledger_t =
    Arg.(value & flag & info [ "ledger" ] ~doc:"Print the per-label round ledger.")
  in
  let alpha_t =
    Arg.(
      value
      & opt float Cc_clique.Matmul.default_alpha
      & info [ "alpha" ] ~doc:"Matrix-multiplication exponent for the charged backend.")
  in
  let bits_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "bits" ] ~doc:"Fixed-point fractional bits (Section 3.5); default exact.")
  in
  let method_t =
    let doc =
      "Sampler: cc (the Theorem 2 distributed sampler), sequential (the \
       Section 1.2 phased reference), ab (Aldous-Broder), wilson, updown \
       (basis-exchange MCMC), determinantal (leverage-score chain rule), \
       biased (a deliberately wrong rejection sampler — the negative fixture \
       the audit plane must reject)."
    in
    Arg.(value & opt string "cc" & info [ "method" ] ~doc)
  in
  let count_t =
    let doc =
      "Sample $(docv) trees in one process reusing one prepared plan \
       (prepare once, draw $(docv) times). Unlike --trials, tree $(i,i) \
       draws from the $(i,i)-th sequential split of the master seed, so \
       its bytes are independent of $(docv) — and identical to what a \
       ccserve request with the same seed streams back. Methods: cc, \
       sequential, doubling."
    in
    Arg.(value & opt int 0 & info [ "count" ] ~doc ~docv:"K")
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
    let method_ = String.lowercase_ascii method_ in
    let methods =
      if count > 0 || connect <> None then [ "cc"; "sequential"; "doubling" ]
      else
        [ "cc"; "sequential"; "ab"; "wilson"; "updown"; "determinantal";
          "biased" ]
    in
    if not (List.mem method_ methods) then
      fail_usage
        (Printf.sprintf "--method: expected %s%s, got %S"
           (String.concat "|" methods)
           (if count > 0 || connect <> None then " with --count/--connect"
            else "")
           method_);
    (match bits with
    | Some b when b < 1 -> fail_usage "--bits must be >= 1"
    | _ -> ());
    let prng = Prng.create ~seed in
    let g = load_graph ?weights ~family ~size ~file ~prng () in
    let n = Graph.n g in
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
        run_connect ~sock ~g
          ~k:(if count > 0 then count else trials)
          ~seed ~method_
    | None ->
    let faults = injector fault_spec in
    let net = arm_faults faults (Net.create ~n) in
    let auditor = Option.map (fun spec -> (spec, Cc_audit.Audit.create g)) audit in
    (* Every printed tree is also the auditor's next observation. *)
    let emit tree =
      print_tree tree;
      Option.iter (fun (_, a) -> Cc_audit.Audit.observe a tree) auditor
    in
    let config =
      {
        Sampler.default_config with
        backend = Cc_clique.Matmul.charged ~alpha ();
        bits;
      }
    in
    let unrecoverable = ref false in
    with_obs obs net (fun () ->
    (if count > 0 then
      (* Prepare once, draw [count] times. Tree t draws from the t-th
         sequential split of the master stream, so its bytes don't depend
         on count — and match what a ccserve request with the same seed
         streams back. *)
      match method_ with
      | "cc" ->
          let plan = Sampler.prepare ~config g in
          for t = 1 to count do
            let p = Prng.split prng in
            let r = Sampler.draw plan net p in
            Printf.printf "# tree %d: %d phases, %.0f rounds, walk length %d\n"
              t r.Sampler.phases r.Sampler.rounds r.Sampler.walk_total;
            if faults <> None then
              Format.printf "# health: %a@." Fault.pp_health r.Sampler.health;
            if exit_for_health r.Sampler.health then unrecoverable := true;
            emit r.Sampler.tree
          done
      | "sequential" ->
          let plan = Cc_sampler.Sequential.prepare g in
          for t = 1 to count do
            let p = Prng.split prng in
            let r = Cc_sampler.Sequential.draw plan p in
            Printf.printf "# tree %d: %d phases, walk length %d\n" t
              r.Cc_sampler.Sequential.phases
              r.Cc_sampler.Sequential.walk_total;
            emit r.Cc_sampler.Sequential.tree
          done
      | "doubling" ->
          let plan = Doubling.prepare g ~tau0:n in
          for t = 1 to count do
            let p = Prng.split prng in
            let tree, steps = Doubling.draw plan net p in
            Printf.printf "# tree %d: %d walk steps\n" t steps;
            emit tree
          done
      | _ -> assert false (* --method validated above *)
    else
    for t = 1 to trials do
      (match method_ with
      | "cc" ->
          let r = Sampler.sample ~config net prng g in
          Printf.printf "# tree %d: %d phases, %.0f rounds, walk length %d\n" t
            r.Sampler.phases r.Sampler.rounds r.Sampler.walk_total;
          if faults <> None then
            Format.printf "# health: %a@." Fault.pp_health r.Sampler.health;
          if exit_for_health r.Sampler.health then unrecoverable := true;
          emit r.Sampler.tree
      | "sequential" ->
          let r = Cc_sampler.Sequential.sample g prng in
          Printf.printf "# tree %d: %d phases, walk length %d\n" t
            r.Cc_sampler.Sequential.phases r.Cc_sampler.Sequential.walk_total;
          emit r.Cc_sampler.Sequential.tree
      | "ab" ->
          let tree, steps = Cc_walks.Aldous_broder.sample g prng ~start:0 in
          Printf.printf "# tree %d: %d walk steps\n" t steps;
          emit tree
      | "wilson" ->
          let tree, steps = Cc_walks.Wilson.sample g prng ~root:0 in
          Printf.printf "# tree %d: %d walk steps\n" t steps;
          emit tree
      | "updown" ->
          Printf.printf "# tree %d: %d chain steps\n" t
            (Cc_walks.Updown.default_steps g);
          emit (Cc_walks.Updown.sample_tree g prng)
      | "determinantal" ->
          Printf.printf "# tree %d (exact, leverage-score chain rule)\n" t;
          emit (Cc_walks.Determinantal.sample_tree g prng)
      | "biased" ->
          Printf.printf "# tree %d (biased fixture; see --audit)\n" t;
          emit (Cc_walks.Wilson.sample_biased g prng)
      | _ -> assert false (* --method validated above *))
    done);
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
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
    let n = Graph.n g in
    let faults = injector fault_spec in
    let net = arm_faults faults (Net.create ~n) in
    let unrecoverable = ref false in
    with_obs obs net (fun () ->
    if tau > 0 then begin
      let r = Doubling.run net prng g ~tau ~scheme:(Doubling.default_scheme ~n) in
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
    let prng = Prng.create ~seed in
    let g = load_graph ~family ~size ~file ~prng () in
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
