(* ccprof — offline analyzer for the observability artifacts the repo's
   tools write:

     summary FILE          per-experiment table of a cc-bench/* JSON run,
                           or the instrument table of a metrics JSON dump
                           (cctree --metrics-json FILE)
     diff BASELINE NEW     regression gate on measured/bound ratios
     heatmap FILE          machine x label congestion heatmap of a
                           flight-recorder log (cctree --record FILE)
     trace FILE            top spans/events of a trace artifact
                           (--trace-out)
     events FILE           render a lifecycle-event journal JSONL
                           (ccserve --health-log FILE)
     timeline FILE         Chrome/Perfetto JSON from a trace artifact
                           (--trace-out)
     critical-path FILE    longest dependent chain through the spans with
                           per-phase self-time/rounds attribution
     history FILE          per-experiment trend deltas over an appended
                           bench trajectory (bench/HISTORY)
     audit FILE            statistical audit verdicts (cctree sample
                           --audit): gate table, worst-edge ranking,
                           convergence sparklines

   Exit codes: 0 ok; 1 diff found a regression (unless --warn-only),
   critical-path --budget saw a phase share exceeded, or audit saw a
   statistical breach; 2 unreadable or malformed input. *)

module Json = Cc_obs.Json
module Benchdata = Cc_obs.Benchdata
module Profile = Cc_obs.Profile
module Recorder = Cc_obs.Recorder
module Metrics = Cc_obs.Metrics
module Journal = Cc_obs.Journal
module Trace = Cc_obs.Trace
module Critical_path = Cc_obs.Critical_path
module Table = Cc_util.Table
open Cmdliner

let exit_regression = 1
let exit_bad_input = 2

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg ->
      Printf.eprintf "ccprof: %s\n" msg;
      exit exit_bad_input
  | s -> s

let load_doc path =
  match Benchdata.load path with
  | Ok doc -> doc
  | Error msg ->
      Printf.eprintf "ccprof: %s: %s\n" path msg;
      exit exit_bad_input

let opt_f decimals = function
  | None -> "-"
  | Some x -> Printf.sprintf "%.*f" decimals x

let opt_i = function None -> "-" | Some i -> string_of_int i

(* --- summary --- *)

let summary_doc path doc =
  let aggs = Benchdata.aggregate doc in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "%s — %s%s" path doc.Benchdata.schema
           (if doc.Benchdata.fast then " (fast)" else ""))
      ~columns:
        [ "experiment"; "rows"; "mean ratio"; "worst ratio"; "wall s";
          "max load"; "imbalance"; "quality" ]
  in
  List.iter
    (fun a ->
      let e = a.Benchdata.exp in
      Table.add_row table
        [
          e.Benchdata.id;
          Table.cell_int a.Benchdata.rows;
          opt_f 3 a.Benchdata.mean_ratio;
          opt_f 3 a.Benchdata.worst_ratio;
          opt_f 2 e.Benchdata.wall_s;
          opt_i e.Benchdata.max_load;
          opt_f 2 e.Benchdata.imbalance;
          (match a.Benchdata.quality with
          | [] -> "-"
          | q ->
              String.concat " "
                (List.map (fun (k, x) -> Printf.sprintf "%s=%.3g" k x) q));
        ])
    aggs;
  Table.print table;
  Printf.printf
    "%d experiments, %d records (ratio = measured / paper bound; imbalance \
     = hottest machine / balanced ideal)\n"
    (List.length aggs)
    (List.length doc.Benchdata.records)

(* A metrics dump (cctree --metrics-json) is a JSON object keyed by
   instrument name whose every value parses as a Metrics.value; anything
   else falls through to the cc-bench reader. *)
let metrics_of_json = function
  | Json.Obj ((_ :: _) as kvs) ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | (k, v) :: rest -> (
            match Metrics.value_of_json v with
            | Ok mv -> go ((k, mv) :: acc) rest
            | Error _ -> None)
      in
      go [] kvs
  | _ -> None

let summary_metrics path instruments =
  let table =
    Table.create
      ~title:(Printf.sprintf "%s — metrics registry" path)
      ~columns:
        [ "instrument"; "kind"; "count"; "value/mean"; "min"; "max"; "p50";
          "p95"; "p99" ]
  in
  List.iter
    (fun (name, v) ->
      let row =
        match v with
        | Metrics.Counter n ->
            [ name; "counter"; "-"; string_of_int n; "-"; "-"; "-"; "-"; "-" ]
        | Metrics.Gauge x ->
            [ name; "gauge"; "-"; Printf.sprintf "%.3f" x; "-"; "-"; "-";
              "-"; "-" ]
        | Metrics.Histogram h ->
            let mean =
              if h.Metrics.count > 0 then
                h.Metrics.sum /. float_of_int h.Metrics.count
              else Float.nan
            in
            [ name; "histogram";
              Table.cell_int h.Metrics.count;
              Printf.sprintf "%.3f" mean;
              Printf.sprintf "%.3f" h.Metrics.min;
              Printf.sprintf "%.3f" h.Metrics.max;
              Printf.sprintf "%.3f" h.Metrics.p50;
              Printf.sprintf "%.3f" h.Metrics.p95;
              Printf.sprintf "%.3f" h.Metrics.p99;
            ]
      in
      Table.add_row table row)
    instruments;
  Table.print table;
  Printf.printf "%d instrument(s)\n" (List.length instruments)

let summary_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    let sniffed =
      match Json.of_string (read_file file) with
      | Ok j -> metrics_of_json j
      | Error _ -> None
    in
    match sniffed with
    | Some instruments -> summary_metrics file instruments
    | None -> summary_doc file (load_doc file)
  in
  let info =
    Cmd.info "summary"
      ~doc:
        "Summarize one cc-bench/* JSON run per experiment, or render the \
         instrument table of a metrics JSON dump (cctree --metrics-json)."
  in
  Cmd.v info Term.(const run $ file_t)

(* --- diff --- *)

let diff_cmd =
  let old_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE")
  in
  let new_t = Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW") in
  let threshold_t =
    let doc =
      "Relative worsening of an experiment's mean measured/bound ratio that \
       counts as a regression."
    in
    Arg.(value & opt float 0.10 & info [ "threshold" ] ~doc ~docv:"FRAC")
  in
  let warn_only_t =
    let doc = "Report regressions but exit 0 anyway." in
    Arg.(value & flag & info [ "warn-only" ] ~doc)
  in
  let run old_file new_file threshold warn_only =
    let baseline = load_doc old_file and current = load_doc new_file in
    let d = Benchdata.diff ~threshold ~baseline current in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "%s -> %s (threshold %.0f%%)" old_file new_file
             (100.0 *. threshold))
        ~columns:[ "experiment"; "old ratio"; "new ratio"; "change"; "verdict" ]
    in
    let row verdict (delta : Benchdata.delta) =
      Table.add_row table
        [
          delta.Benchdata.id;
          Printf.sprintf "%.3f" delta.Benchdata.old_ratio;
          Printf.sprintf "%.3f" delta.Benchdata.new_ratio;
          Printf.sprintf "%+.1f%%" (100.0 *. delta.Benchdata.change);
          verdict;
        ]
    in
    List.iter (row "REGRESSION") d.Benchdata.regressions;
    List.iter (row "improved") d.Benchdata.improvements;
    List.iter (row "ok") d.Benchdata.unchanged;
    Table.print table;
    List.iter
      (fun id -> Printf.printf "only in %s: %s\n" old_file id)
      d.Benchdata.only_old;
    List.iter
      (fun id -> Printf.printf "only in %s: %s\n" new_file id)
      d.Benchdata.only_new;
    match d.Benchdata.regressions with
    | [] -> print_endline "no regressions"
    | regs ->
        Printf.printf "%d regression(s) beyond %.0f%%%s\n" (List.length regs)
          (100.0 *. threshold)
          (if warn_only then " (warn-only)" else "");
        if not warn_only then exit exit_regression
  in
  let info =
    Cmd.info "diff"
      ~doc:
        "Compare two cc-bench/* runs; nonzero exit when an experiment's \
         measured/bound ratio worsened beyond the threshold."
  in
  Cmd.v info Term.(const run $ old_t $ new_t $ threshold_t $ warn_only_t)

(* --- heatmap --- *)

let heatmap_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let width_t =
    Arg.(
      value & opt int 64
      & info [ "width" ] ~doc:"Maximum heatmap columns before bucketing.")
  in
  (* Only a log whose digest chain verifies is rendered: a truncated or
     altered log would draw a heatmap of traffic the run never booked. *)
  let run file width =
    let bad msg =
      Printf.eprintf "ccprof: %s: %s\n" file msg;
      exit exit_bad_input
    in
    let l =
      match Recorder.of_jsonl (read_file file) with
      | Ok l -> l
      | Error msg -> bad msg
    in
    (match Recorder.verify l with Ok _ -> () | Error msg -> bad msg);
    let p = Profile.create ~machines:(Recorder.machines l.Recorder.log) in
    (try
       List.iter
         (fun (r : Recorder.record) ->
           Profile.add p ~label:r.label ~words:r.words ~sent:r.sent
             ~recv:r.recv)
         (Recorder.records l.Recorder.log)
     with Invalid_argument msg -> bad msg);
    print_string (Profile.render ~max_width:width p)
  in
  let info =
    Cmd.info "heatmap"
      ~doc:
        "Render the machine x label congestion heatmap of a flight-recorder \
         log (cctree --record), folding its records the way --profile folds \
         the live event stream."
  in
  Cmd.v info Term.(const run $ file_t $ width_t)

(* --- trace artifacts (cctree --trace-out) --- *)

let load_trace file =
  match Trace.of_jsonl (read_file file) with
  | Error msg ->
      Printf.eprintf "ccprof: %s: %s\n" file msg;
      exit exit_bad_input
  | Ok tr -> tr

let trace_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let top_t =
    Arg.(value & opt int 15 & info [ "top" ] ~doc:"Rows to show per table.")
  in
  let run file top =
    let tr = load_trace file in
    let take n xs = List.filteri (fun i _ -> i < n) xs in
    let rec flatten (sp : Trace.span) = sp :: List.concat_map flatten sp.children in
    let spans =
      List.stable_sort
        (fun (a : Trace.span) b -> compare b.net_rounds a.net_rounds)
        (List.concat_map flatten (Trace.roots tr))
    in
    let span_table =
      Table.create
        ~title:(Printf.sprintf "%s — top spans by rounds" file)
        ~columns:[ "span"; "depth"; "rounds"; "words"; "peak load"; "wall s" ]
    in
    List.iter
      (fun (sp : Trace.span) ->
        Table.add_row span_table
          [
            sp.name;
            string_of_int sp.depth;
            Printf.sprintf "%.1f" sp.net_rounds;
            string_of_int sp.net_words;
            string_of_int sp.net_max_load;
            Printf.sprintf "%.4f" (sp.stop_ts -. sp.start_ts);
          ])
      (take top spans);
    Table.print span_table;
    let events =
      List.stable_sort
        (fun (a : Trace.event) b -> compare b.max_load a.max_load)
        (Trace.events tr)
    in
    let event_table =
      Table.create
        ~title:(Printf.sprintf "%s — top net events by per-machine load" file)
        ~columns:[ "kind"; "label"; "rounds"; "words"; "max load" ]
    in
    List.iter
      (fun (ev : Trace.event) ->
        Table.add_row event_table
          [
            ev.kind;
            ev.label;
            Printf.sprintf "%.1f" ev.rounds;
            string_of_int ev.words;
            string_of_int ev.max_load;
          ])
      (take top events);
    Table.print event_table;
    Printf.printf "%d spans, %d events\n" (List.length spans)
      (List.length events)
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Show the hottest spans and net events of a trace artifact \
         (--trace-out)."
  in
  Cmd.v info Term.(const run $ file_t $ top_t)

(* --- timeline --- *)

let timeline_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let out_t =
    let doc = "Write the Chrome JSON to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let run file out =
    let tr = load_trace file in
    let json = Trace.to_chrome_json tr in
    match out with
    | None -> print_endline json
    | Some path -> (
        try
          let oc = open_out path in
          output_string oc json;
          output_char oc '\n';
          close_out oc
        with Sys_error msg ->
          Printf.eprintf "ccprof: %s\n" msg;
          exit exit_bad_input)
  in
  let info =
    Cmd.info "timeline"
      ~doc:
        "Convert a trace artifact (--trace-out) into a Chrome/Perfetto JSON \
         timeline."
  in
  Cmd.v info Term.(const run $ file_t $ out_t)

(* --- critical-path --- *)

let critical_path_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let budget_t =
    let doc =
      "Fail (exit 1) when phase $(i,NAME)'s share of the critical path \
       exceeds $(i,FRAC) (a fraction in (0,1]). Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "budget" ] ~doc ~docv:"NAME=FRAC")
  in
  let warn_only_t =
    let doc = "Report budget breaches but exit 0 anyway." in
    Arg.(value & flag & info [ "warn-only" ] ~doc)
  in
  let parse_budget s =
    match String.index_opt s '=' with
    | None -> None
    | Some i -> (
        let name = String.sub s 0 i in
        let frac = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt frac with
        | Some f when name <> "" && f > 0.0 && f <= 1.0 -> Some (name, f)
        | _ -> None)
  in
  let run file budgets warn_only =
    let budgets =
      List.map
        (fun s ->
          match parse_budget s with
          | Some b -> b
          | None ->
              Printf.eprintf
                "ccprof: bad --budget %S (want NAME=FRAC with FRAC in (0,1])\n"
                s;
              exit exit_bad_input)
        budgets
    in
    let tr = load_trace file in
    match Critical_path.compute tr with
    | None ->
        Printf.eprintf "ccprof: %s: no completed spans\n" file;
        exit exit_bad_input
    | Some cp ->
        let table =
          Table.create
            ~title:(Printf.sprintf "%s — critical-path attribution" file)
            ~columns:[ "phase"; "self s"; "rounds"; "% of run" ]
        in
        List.iter
          (fun (r : Critical_path.row) ->
            Table.add_row table
              [
                r.Critical_path.phase;
                Printf.sprintf "%.4f" r.Critical_path.self_s;
                Printf.sprintf "%.1f" r.Critical_path.rounds;
                Printf.sprintf "%.1f" (100.0 *. r.Critical_path.share);
              ])
          cp.Critical_path.rows;
        Table.print table;
        Printf.printf
          "end-to-end %.4f s; chain %.4f s over %d segment(s) (%.1f%% \
           covered, %.4f s gaps)\n"
          cp.Critical_path.total_s cp.Critical_path.covered_s
          (List.length cp.Critical_path.chain)
          (if cp.Critical_path.total_s > 0.0 then
             100.0 *. cp.Critical_path.covered_s /. cp.Critical_path.total_s
           else 100.0)
          cp.Critical_path.gap_s;
        let breaches =
          List.filter_map
            (fun (name, frac) ->
              let s = Critical_path.share cp.Critical_path.rows ~phase:name in
              if s > frac then Some (name, frac, s) else None)
            budgets
        in
        List.iter
          (fun (name, frac, s) ->
            Printf.printf "BUDGET BREACH: %s holds %.1f%% of the critical \
                           path (budget %.1f%%)\n"
              name (100.0 *. s) (100.0 *. frac))
          breaches;
        if breaches <> [] && not warn_only then exit exit_regression
  in
  let info =
    Cmd.info "critical-path"
      ~doc:
        "Extract the longest dependent chain from a trace artifact \
         (--trace-out) and attribute it per phase; --budget gates a phase's \
         share of the run."
  in
  Cmd.v info Term.(const run $ file_t $ budget_t $ warn_only_t)

(* --- events --- *)

let events_cmd =
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let json_t =
    let doc = "Print the events as a JSON array instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run file json =
    match Journal.of_jsonl (read_file file) with
    | Error msg ->
        Printf.eprintf "ccprof: %s: %s\n" file msg;
        exit exit_bad_input
    | Ok events when json ->
        print_endline
          (Json.to_string (Json.List (List.map Journal.event_to_json events)))
    | Ok events ->
        let table =
          Table.create
            ~title:(Printf.sprintf "%s — lifecycle events" file)
            ~columns:[ "seq"; "t s"; "round"; "kind"; "worker"; "cause" ]
        in
        List.iter
          (fun (e : Journal.event) ->
            Table.add_row table
              [
                Table.cell_int e.Journal.seq;
                Printf.sprintf "%.3f" e.Journal.t_s;
                Printf.sprintf "%.0f" e.Journal.round;
                e.Journal.kind;
                opt_i e.Journal.worker;
                e.Journal.cause;
              ])
          events;
        Table.print table;
        Printf.printf "%d event(s)\n" (List.length events)
  in
  let info =
    Cmd.info "events"
      ~doc:
        "Render a lifecycle-event journal (ccserve --health-log); --json \
         emits the raw events instead of the table."
  in
  Cmd.v info Term.(const run $ file_t $ json_t)

(* --- sparklines (history, audit) --- *)

let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

(* Render [xs] (oldest first) against the window maximum; all-zero (or
   empty) windows render flat. *)
let sparkline xs =
  let hi = List.fold_left Float.max 0.0 xs in
  String.concat ""
    (List.map
       (fun x ->
         if hi <= 0.0 || x <= 0.0 then spark_levels.(0)
         else
           spark_levels.(min
                           (Array.length spark_levels - 1)
                           (int_of_float (x /. hi *. 7.99)))
       )
       xs)

(* --- history --- *)

let history_cmd =
  (* [string], not [file]: an absent history file means "no runs recorded
     yet" — a normal state for a fresh checkout, not a usage error. *)
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run file =
    if not (Sys.file_exists file) then begin
      Printf.printf "%s: no history\n" file;
      exit 0
    end;
    let lines =
      String.split_on_char '\n' (read_file file)
      |> List.filter (fun l -> String.trim l <> "")
    in
    if lines = [] then begin
      Printf.printf "%s: no history\n" file;
      exit 0
    end;
    let runs =
      List.mapi
        (fun i l ->
          match Json.of_string l with
          | Ok v -> v
          | Error msg ->
              Printf.eprintf "ccprof: %s: line %d: %s\n" file (i + 1) msg;
              exit exit_bad_input)
        lines
    in
    (* Shape gate: every line must be a history line, not just any JSON —
       feeding some other artifact is a usage error, not an empty trend. *)
    List.iteri
      (fun i v ->
        match Json.member "experiments" v with
        | Some (Json.List _) -> ()
        | _ ->
            Printf.eprintf
              "ccprof: %s: line %d: not a bench history line (missing \
               \"experiments\" list)\n"
              file (i + 1);
            exit exit_bad_input)
      runs;
    let jstr key v =
      Option.value ~default:"?"
        (Option.bind (Json.member key v) Json.to_string_opt)
    in
    let jnum key v =
      Option.bind (Json.member key v) Json.to_float_opt
    in
    let jlist key v =
      Option.value ~default:[]
        (Option.bind (Json.member key v) Json.to_list_opt)
    in
    (* (experiment id, (wall_s, mean_ratio) per run in file order) *)
    let order = ref [] in
    let series : (string, (float * float option) list) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun run ->
        List.iter
          (fun e ->
            let id = jstr "id" e in
            match jnum "wall_s" e with
            | None -> ()
            | Some wall ->
                let prev =
                  match Hashtbl.find_opt series id with
                  | Some l -> l
                  | None ->
                      order := id :: !order;
                      []
                in
                Hashtbl.replace series id
                  (prev @ [ (wall, jnum "mean_ratio" e) ]))
          (jlist "experiments" run))
      runs;
    let last = List.nth runs (List.length runs - 1) in
    Printf.printf
      "%s — %d run(s); last: host %s, ocaml %s%s\n"
      file (List.length runs) (jstr "host" last) (jstr "ocaml" last)
      (match Json.member "fast" last with
      | Some (Json.Bool true) -> ", fast"
      | _ -> "");
    let table =
      Table.create ~title:"per-experiment trend (wall-clock)"
        ~columns:
          [ "experiment"; "runs"; "first s"; "last s"; "delta %"; "trend";
            "last ratio" ]
    in
    List.iter
      (fun id ->
        let xs = Hashtbl.find series id in
        let walls = List.map fst xs in
        let first = List.hd walls in
        let last_w = List.nth walls (List.length walls - 1) in
        let delta =
          if first > 0.0 then 100.0 *. (last_w -. first) /. first else 0.0
        in
        let ratio =
          match List.nth xs (List.length xs - 1) with
          | _, Some r -> Printf.sprintf "%.3f" r
          | _, None -> "-"
        in
        Table.add_row table
          [
            id;
            Table.cell_int (List.length xs);
            Printf.sprintf "%.4f" first;
            Printf.sprintf "%.4f" last_w;
            Printf.sprintf "%+.1f" delta;
            sparkline walls;
            ratio;
          ])
      (List.rev !order);
    Table.print table
  in
  let info =
    Cmd.info "history"
      ~doc:
        "Show per-experiment wall-clock trends over an appended bench \
         trajectory (bench/HISTORY/history.jsonl, one env-fingerprinted \
         JSON object per --json bench run)."
  in
  Cmd.v info Term.(const run $ file_t)

(* --- audit --- *)

let audit_cmd =
  let module Audit = Cc_audit.Audit in
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let warn_only_t =
    let doc = "Report statistical breaches but exit 0 anyway." in
    Arg.(value & flag & info [ "warn-only" ] ~doc)
  in
  let assert_t =
    let doc =
      "Additionally fail (exit 1) when the artifact is inconclusive: no \
       verdict line, or zero audited trees. The strict form the CI \
       statistical gate uses."
    in
    Arg.(value & flag & info [ "assert" ] ~doc)
  in
  let top_t =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Worst edges (by |z|) to rank." ~docv:"K")
  in
  let run file warn_only assert_ top =
    match Audit.of_jsonl (read_file file) with
    | Error msg ->
        Printf.eprintf "ccprof: %s: %s\n" file msg;
        exit exit_bad_input
    | Ok r ->
        Printf.printf
          "%s — audit of %d tree(s) on n=%d, m=%d (alpha %g); ESS %.1f, \
           edge-marginal TV %.4f, KL %.5f\n"
          file r.Audit.r_trials r.Audit.r_n r.Audit.r_m r.Audit.r_alpha
          r.Audit.r_ess r.Audit.r_tv_edges r.Audit.r_kl_edges;
        if r.Audit.r_invalid > 0 then
          Printf.printf "invalid trees %d\n" r.Audit.r_invalid;
        (match r.Audit.r_verdict with
        | None -> ()
        | Some v ->
            let table =
              Table.create
                ~title:
                  (Printf.sprintf "gates — verdict %s at %d tree(s)"
                     (if v.Audit.pass then "PASS" else "FAIL")
                     v.Audit.at_trials)
                ~columns:
                  [ "gate"; "statistic"; "threshold"; "verdict"; "detail" ]
            in
            List.iter
              (fun (g : Audit.gate) ->
                Table.add_row table
                  [
                    g.Audit.gate;
                    Printf.sprintf "%.3f" g.Audit.statistic;
                    Printf.sprintf "%.3f" g.Audit.threshold;
                    (if not g.Audit.applied then "abstained"
                     else if g.Audit.breached then "BREACH"
                     else "ok");
                    g.Audit.detail;
                  ])
              v.Audit.gates;
            Table.print table);
        (match r.Audit.r_small with
        | None -> ()
        | Some s ->
            Printf.printf
              "exact distribution: support %d (observed %d, foreign %d), \
               TV %.4f, KL %.5f, chi2 %.2f\n"
              s.Audit.support s.Audit.observed_support s.Audit.foreign
              s.Audit.r_small_tv s.Audit.r_small_kl s.Audit.r_small_chi2);
        let worst =
          List.sort
            (fun (a : Audit.edge_stat) b ->
              compare (Float.abs b.Audit.z) (Float.abs a.Audit.z))
            (List.filter (fun (e : Audit.edge_stat) -> not e.Audit.bridge)
               r.Audit.r_edges)
        in
        if worst <> [] then begin
          let table =
            Table.create ~title:"worst edges by |z|"
              ~columns:[ "edge"; "leverage"; "empirical"; "count"; "z" ]
          in
          List.iteri
            (fun i (e : Audit.edge_stat) ->
              if i < top then
                Table.add_row table
                  [
                    Printf.sprintf "%d-%d" e.Audit.u e.Audit.v;
                    Printf.sprintf "%.4f" e.Audit.leverage;
                    (if r.Audit.r_trials > 0 then
                       Printf.sprintf "%.4f"
                         (float_of_int e.Audit.count
                         /. float_of_int r.Audit.r_trials)
                     else "-");
                    Table.cell_int e.Audit.count;
                    Printf.sprintf "%+.2f" e.Audit.z;
                  ])
            worst;
          Table.print table
        end;
        (match r.Audit.r_snapshots with
        | [] -> ()
        | snaps ->
            let line name f =
              let xs = List.map f snaps in
              if List.exists (fun x -> Float.is_finite x && x > 0.0) xs then
                Printf.printf "%-10s %s (at %d..%d trees)\n" name
                  (sparkline xs)
                  (List.hd snaps).Audit.at
                  (List.nth snaps (List.length snaps - 1)).Audit.at
            in
            line "max |z|" (fun s -> s.Audit.s_max_z);
            line "edge TV" (fun s -> s.Audit.s_tv);
            (match (List.hd snaps).Audit.s_small_tv with
            | Some _ ->
                line "exact TV" (fun s ->
                    Option.value ~default:Float.nan s.Audit.s_small_tv)
            | None -> ()));
        let inconclusive =
          r.Audit.r_verdict = None || r.Audit.r_trials = 0
        in
        let breach =
          match r.Audit.r_verdict with
          | Some v -> not v.Audit.pass
          | None -> false
        in
        if breach then begin
          Printf.printf "STATISTICAL BREACH: the sampler failed the audit%s\n"
            (if warn_only then " (warn-only)" else "");
          if not warn_only then exit exit_regression
        end;
        if assert_ && inconclusive then begin
          Printf.eprintf
            "ccprof: %s: inconclusive audit (%s)\n" file
            (if r.Audit.r_trials = 0 then "zero audited trees"
             else "no verdict line");
          exit exit_regression
        end
  in
  let info =
    Cmd.info "audit"
      ~doc:
        "Render a statistical audit artifact (cctree sample --audit FILE): \
         gate verdicts against the exact \
         leverage-score oracle, worst-edge ranking, convergence sparklines. \
         Exit 1 on a statistical breach unless --warn-only; --assert also \
         fails inconclusive artifacts."
  in
  Cmd.v info Term.(const run $ file_t $ warn_only_t $ assert_t $ top_t)

let main =
  let doc = "Analyze cc-bench runs, load profiles, and traces offline." in
  let info = Cmd.info "ccprof" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      summary_cmd; diff_cmd; heatmap_cmd; trace_cmd; timeline_cmd;
      critical_path_cmd; history_cmd; events_cmd; audit_cmd;
    ]

let () = exit (Cmd.eval main)
