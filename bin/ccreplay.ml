(* ccreplay — record, validate, diff, and visualize Net flight-recorder
   logs (see Cc_obs.Recorder / Cc_obs.Invariant and DESIGN.md §9):

     record -o FILE        run a seeded workload with the recorder and the
                           invariant monitor attached; write the JSONL log
     check FILE            reload a log, verify its digest chain, re-run
                           the online invariant checkers
     diff A B              compare two logs to the first divergent event
     timeline FILE         ASCII per-round timeline of a recorded run

   Exit codes match ccprof: 0 ok; 1 divergence / failed validation;
   2 unreadable or malformed input. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Prng = Cc_util.Prng
module Sampler = Cc_sampler.Sampler
module Doubling = Cc_doubling.Doubling
module Recorder = Cc_obs.Recorder
module Invariant = Cc_obs.Invariant
open Cmdliner

let exit_divergence = 1
let exit_bad_input = 2

let fail_usage msg =
  prerr_endline ("ccreplay: " ^ msg);
  exit exit_bad_input

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg ->
      Printf.eprintf "ccreplay: %s\n" msg;
      exit exit_bad_input
  | s -> s

let load path =
  match Recorder.of_jsonl (read_file path) with
  | Ok l -> l
  | Error msg ->
      Printf.eprintf "ccreplay: %s: %s\n" path msg;
      exit exit_bad_input

let print_violations vs =
  List.iter
    (fun v -> Format.printf "  %a@." Invariant.pp_violation v)
    vs

(* --- record --- *)

let record_cmd =
  let algo_t =
    let doc = "Workload: sample (Theorem 2 sampler) or doubling." in
    Arg.(value & opt string "sample" & info [ "algo" ] ~doc)
  in
  let family_t =
    let doc = "Graph family (as in cctree -f)." in
    Arg.(value & opt string "lollipop" & info [ "f"; "family" ] ~doc)
  in
  let size_t =
    Arg.(
      value & opt int 32
      & info [ "n"; "size" ] ~doc:"Number of vertices for the family.")
  in
  let seed_t =
    let doc = "PRNG seed (the log is deterministic given the seed)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let drop_t =
    let doc = "Per-message drop probability in [0, 1) (fault injection)." in
    Arg.(value & opt float 0.0 & info [ "drop-prob" ] ~doc ~docv:"P")
  in
  let fault_seed_t =
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~doc:"Fault-schedule seed.")
  in
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the recorder JSONL to $(docv)."
          ~docv:"FILE")
  in
  let domains_t =
    let doc =
      "Number of OCaml domains for local computation. The recorded log and \
       its digest are bit-identical for any value — that is the property \
       the determinism CI job checks with $(b,ccreplay diff)."
    in
    let install spec =
      match Cc_engine.install_domains spec with
      | Ok () -> ()
      | Error e -> fail_usage e
    in
    Term.(
      const install
      $ Arg.(
          value & opt (some string) None & info [ "domains" ] ~doc ~docv:"N"))
  in
  let trace_out_t =
    let doc =
      "Write the trace artifact (JSON lines, readable by $(b,ccprof \
       timeline) and $(b,ccprof critical-path)) to $(docv). Installs a \
       trace collector and wraps the recorded run in a root $(i,run) span. \
       The recorded log and its digest are bit-identical with and without \
       it — the zero-perturbation contract CI enforces."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")
  in
  let audit_t =
    let doc =
      "Attach the statistical auditor to the recorded workload and write \
       the JSONL audit artifact to $(docv) (readable by $(b,ccprof audit)); \
       the verdict summary goes to stderr. Zero-perturbation: the recorded \
       log and its digest are byte-identical with and without this flag — \
       part of the contract CI checks with $(b,ccreplay diff)."
    in
    Arg.(value & opt (some string) None & info [ "audit" ] ~doc ~docv:"FILE")
  in
  let run () algo family size seed drop_prob fault_seed out trace_out audit =
    let prng = Prng.create ~seed in
    let g =
      match Gen.family_of_string family with
      | fam -> Gen.build prng fam ~n:size
      | exception _ ->
          Printf.eprintf "ccreplay: unknown graph family %S\n" family;
          exit exit_bad_input
    in
    let n = Graph.n g in
    let net = Net.create ~n in
    let net =
      if drop_prob > 0.0 then
        Net.with_faults
          (Fault.create (Fault.spec ~drop_prob ~seed:fault_seed ()))
          net
      else net
    in
    let recorder = Recorder.create ~machines:n () in
    let inv = Invariant.create ~machines:n () in
    ignore (Net.attach_recorder net recorder);
    ignore (Net.attach_invariant net inv);
    let auditor =
      match audit with
      | None -> None
      | Some path ->
          let a = Cc_audit.Audit.create g in
          Cc_audit.Audit.install a;
          Some (path, a)
    in
    let workload =
      match String.lowercase_ascii algo with
      | "sample" -> fun () -> ignore (Sampler.sample net prng g)
      | "doubling" -> fun () -> ignore (Doubling.sample_tree net prng g ~tau0:n)
      | a ->
          Printf.eprintf "ccreplay: unknown workload %S\n" a;
          exit exit_bad_input
    in
    (match trace_out with
    | None -> workload ()
    | Some path ->
        (* The root [run] span wraps the whole workload, so the artifact's
           critical path tiles the recorded run. *)
        let t = Cc_obs.Trace.create () in
        Cc_obs.Trace.with_trace t (fun () ->
            Cc_obs.Trace.with_span "run" workload);
        let oc = open_out path in
        output_string oc (Cc_obs.Trace.to_jsonl t);
        close_out oc);
    (* The audit trailer goes to stderr: stdout and the log must stay
       byte-identical with and without it. *)
    (match auditor with
    | None -> ()
    | Some (path, a) ->
        Cc_audit.Audit.uninstall ();
        let oc = open_out path in
        output_string oc (Cc_audit.Audit.to_jsonl a);
        close_out oc;
        let v = Cc_audit.Audit.verdict a in
        Printf.eprintf "# audit: %s after %d tree(s) -> %s\n"
          (if v.Cc_audit.Audit.pass then "PASS" else "FAIL")
          v.Cc_audit.Audit.at_trials path);
    let lv = Net.ledger_violations net inv in
    let oc = open_out out in
    output_string oc (Recorder.to_jsonl recorder);
    close_out oc;
    Printf.printf "%s: %d events, %.0f rounds, digest %s\n" out
      (Recorder.total recorder) (Net.rounds net)
      (Recorder.digest_hex recorder);
    let vs = Invariant.violations inv @ lv in
    if vs <> [] then begin
      Printf.printf "%d invariant violation(s):\n" (List.length vs);
      print_violations vs;
      exit exit_divergence
    end
  in
  let info =
    Cmd.info "record"
      ~doc:
        "Run a seeded workload with the flight recorder and invariant \
         monitor attached; write the event log as JSON lines."
  in
  Cmd.v info
    Term.(
      const run $ domains_t $ algo_t $ family_t $ size_t $ seed_t $ drop_t
      $ fault_seed_t $ out_t $ trace_out_t $ audit_t)

(* --- check --- *)

let check_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    let l = load file in
    let failures = ref 0 in
    (match Recorder.verify l with
    | Ok digest -> Printf.printf "%s: digest %s verified\n" file digest
    | Error msg ->
        Printf.printf "%s: %s\n" file msg;
        incr failures);
    let records = Recorder.records l.Recorder.log in
    (match
       Invariant.check_log ~machines:(Recorder.machines l.Recorder.log) records
     with
    | [] ->
        Printf.printf "%s: %d records, no invariant violations\n" file
          (List.length records)
    | vs ->
        Printf.printf "%s: %d invariant violation(s):\n" file (List.length vs);
        print_violations vs;
        failures := !failures + List.length vs);
    if !failures > 0 then exit exit_divergence
  in
  let info =
    Cmd.info "check"
      ~doc:
        "Validate a saved log: re-fold the digest chain against the trailer \
         and re-run the online invariant checkers."
  in
  Cmd.v info Term.(const run $ file_t)

(* --- diff --- *)

let diff_cmd =
  let a_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b_t = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let run a_file b_file =
    let a = (load a_file).Recorder.log and b = (load b_file).Recorder.log in
    match Recorder.diff a b with
    | None ->
        Printf.printf "identical: %d records, digest %s\n" (Recorder.total a)
          (Recorder.digest_hex a)
    | Some d ->
        if d.Recorder.seq < 0 then
          Printf.printf "header divergence: %s = %s vs %s\n" d.Recorder.field
            d.Recorder.a d.Recorder.b
        else
          Printf.printf
            "first divergent event: seq %d, field %s: %s vs %s\n"
            d.Recorder.seq d.Recorder.field d.Recorder.a d.Recorder.b;
        exit exit_divergence
  in
  let info =
    Cmd.info "diff"
      ~doc:
        "Compare two recorded logs event by event; exit 1 naming the first \
         divergent event."
  in
  Cmd.v info Term.(const run $ a_t $ b_t)

(* --- timeline --- *)

let timeline_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let width_t =
    Arg.(
      value & opt int 64
      & info [ "width" ] ~doc:"Buckets across the run's round interval.")
  in
  let run file width =
    let l = load file in
    print_string (Recorder.timeline ~width l.Recorder.log)
  in
  let info =
    Cmd.info "timeline"
      ~doc:
        "Render an ASCII per-round timeline of a recorded run: one lane per \
         ledger label, bucketed over the round clock."
  in
  Cmd.v info Term.(const run $ file_t $ width_t)

let main =
  let doc = "Record, validate, diff, and visualize Net flight-recorder logs." in
  let info = Cmd.info "ccreplay" ~version:"1.0.0" ~doc in
  Cmd.group info [ record_cmd; check_cmd; diff_cmd; timeline_cmd ]

let () = exit (Cmd.eval main)
