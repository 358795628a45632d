(* ccprof — offline analyzer for the observability artifacts the repo's
   tools write:

     summary FILE          per-experiment table of a cc-bench/* JSON run,
                           or the instrument table of a metrics JSON dump
                           (cctree --metrics-json FILE)
     diff BASELINE NEW     regression gate on measured/bound ratios
     heatmap FILE          machine x label congestion heatmap of a
                           flight-recorder log (cctree --record FILE)
     trace FILE            self time by span and top spans of a trace
                           artifact (--trace-out); --budget gates a
                           span's share of the run
     timeline FILE         Chrome/Perfetto JSON from a trace artifact
                           (--trace-out)
     history FILE          per-experiment trend deltas over an appended
                           bench trajectory (bench/HISTORY)
     audit FILE            statistical audit verdicts (cctree sample
                           --audit): gate table, worst-edge ranking,
                           convergence sparklines
     replay check FILE     reload a flight-recorder log, verify its digest
                           chain, re-run the online invariant checkers
     replay diff A B       compare two logs to the first divergent event
     replay timeline FILE  ASCII per-round timeline of a recorded run

   Every artifact is read through [load], once; the JSONL ones (recorder
   logs, traces, audits, the bench history) go through
   Cc_obs.Json.fold_lines, so an error names the physical line it is on,
   blank lines counted.

   Exit codes: 0 ok; 1 diff found a regression (unless --warn-only),
   trace --budget saw a span's share exceeded, audit saw a statistical
   breach, or replay found a divergence or a failed validation;
   2 unreadable or malformed input, or a diff --threshold that is not a
   finite fraction >= 0. *)

module Json = Cc_obs.Json
module Benchdata = Cc_obs.Benchdata
module Profile = Cc_obs.Profile
module Recorder = Cc_obs.Recorder
module Invariant = Cc_obs.Invariant
module Metrics = Cc_obs.Metrics
module Trace = Cc_obs.Trace
module Table = Cc_util.Table
open Cmdliner

let exit_regression = 1
let exit_bad_input = 2

let bad_input path msg =
  Printf.eprintf "ccprof: %s: %s\n" path msg;
  exit exit_bad_input

(* [load parse path] reads [path] once and parses it once; an I/O error or
   a parse error exits 2, naming [path] once: a failed open's message
   already starts with it, a failed read's does not. *)
let load parse path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      let prefix = path ^ ": " in
      bad_input path
        (if String.starts_with ~prefix msg then
           String.sub msg (String.length prefix)
             (String.length msg - String.length prefix)
         else msg)
  | s -> ( match parse s with Ok v -> v | Error msg -> bad_input path msg)

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
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let parse s =
    Result.bind (Json.of_string s) (fun j ->
        match metrics_of_json j with
        | Some instruments -> Ok (Either.Left instruments)
        | None -> Result.map Either.right (Benchdata.of_json j))
  in
  let run file =
    match load parse file with
    | Either.Left instruments -> summary_metrics file instruments
    | Either.Right doc -> summary_doc file doc
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
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE")
  in
  let new_t = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW") in
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
    (* A NaN threshold passes every change, and a negative one flags each
       change as both a regression and an improvement. *)
    if not (Float.is_finite threshold && threshold >= 0.0) then begin
      prerr_endline "ccprof: --threshold must be a finite fraction >= 0";
      exit exit_bad_input
    end;
    let baseline = load Benchdata.of_string old_file
    and current = load Benchdata.of_string new_file in
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
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let width_t =
    Arg.(
      value & opt int 64
      & info [ "width" ] ~doc:"Maximum heatmap columns before bucketing.")
  in
  (* Only a log whose digest chain verifies is rendered: a truncated or
     altered log would draw a heatmap of traffic the run never booked. *)
  let run file width =
    let l = load Recorder.of_jsonl file in
    (match Recorder.verify l with
    | Ok _ -> ()
    | Error msg -> bad_input file msg);
    let p = Profile.create ~machines:(Recorder.machines l.Recorder.log) in
    (try List.iter (Profile.add p) (Recorder.records l.Recorder.log)
     with Invalid_argument msg -> bad_input file msg);
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

let trace_cmd =
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let top_t =
    Arg.(value & opt int 15 & info [ "top" ] ~doc:"Rows to show per table.")
  in
  let budget_t =
    let doc =
      "Fail (exit 1) when span $(i,NAME)'s self time exceeds $(i,FRAC) (a \
       fraction in (0,1]) of the run. Repeatable."
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
  let run file top budgets warn_only =
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
    let tr = load Trace.of_jsonl file in
    let st = Trace.self_times tr in
    if st.rows = [] then bad_input file "no completed spans";
    let self_table =
      Table.create
        ~title:(Printf.sprintf "%s — self time by span" file)
        ~columns:[ "span"; "self s"; "self alloc"; "rounds"; "% of run" ]
    in
    List.iter
      (fun (r : Trace.self_row) ->
        Table.add_row self_table
          [
            r.span;
            Printf.sprintf "%.4f" r.self_s;
            Printf.sprintf "%.0f" r.self_alloc;
            Printf.sprintf "%.1f" r.self_rounds;
            Printf.sprintf "%.1f" (100.0 *. r.share);
          ])
      st.rows;
    Table.print self_table;
    Printf.printf "end-to-end %.4f s; spans cover %.4f s (%.1f%%), %.4f s gaps\n"
      st.total_s st.covered_s
      (if st.total_s > 0.0 then 100.0 *. st.covered_s /. st.total_s else 100.0)
      st.gap_s;
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
    Printf.printf "%d spans\n" (List.length spans);
    let breaches =
      List.filter_map
        (fun (name, frac) ->
          let s = Trace.self_share st.rows ~name in
          if s > frac then Some (name, frac, s) else None)
        budgets
    in
    List.iter
      (fun (name, frac, s) ->
        Printf.printf "BUDGET BREACH: %s holds %.1f%% of the run (budget %.1f%%)\n"
          name (100.0 *. s) (100.0 *. frac))
      breaches;
    if breaches <> [] && not warn_only then exit exit_regression
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Show self time by span, then the hottest spans of a trace artifact \
         (--trace-out); --budget gates a span's share of the run. Per-label \
         peak load is $(b,ccprof heatmap)'s, on a --record log."
  in
  Cmd.v info Term.(const run $ file_t $ top_t $ budget_t $ warn_only_t)

(* --- timeline --- *)

let timeline_cmd =
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let out_t =
    let doc = "Write the Chrome JSON to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let run file out =
    let tr = load Trace.of_jsonl file in
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
  (* An absent history file means "no runs recorded yet" — a normal state
     for a fresh checkout, not a usage error. *)
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run file =
    if not (Sys.file_exists file) then begin
      Printf.printf "%s: no history\n" file;
      exit 0
    end;
    (* Shape gate: every line must be a history line, not just any JSON —
       feeding some other artifact is a usage error, not an empty trend. *)
    let history_line runs _raw v =
      match Json.member "experiments" v with
      | Some (Json.List _) -> Ok (v :: runs)
      | _ -> Error "not a bench history line (missing \"experiments\" list)"
    in
    let runs = List.rev (load (Json.fold_lines history_line []) file) in
    if runs = [] then begin
      Printf.printf "%s: no history\n" file;
      exit 0
    end;
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
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
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
    let r = load Audit.of_jsonl file in
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
            ~columns:[ "gate"; "statistic"; "threshold"; "verdict"; "detail" ]
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
    let inconclusive = r.Audit.r_verdict = None || r.Audit.r_trials = 0 in
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
      Printf.eprintf "ccprof: %s: inconclusive audit (%s)\n" file
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

(* --- replay (flight-recorder logs, cctree --record; DESIGN.md §9) --- *)

let replay_cmd =
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let check_cmd =
    let run file =
      let l = load Recorder.of_jsonl file in
      let failures = ref 0 in
      (match Recorder.verify l with
      | Ok digest -> Printf.printf "%s: digest %s verified\n" file digest
      | Error msg ->
          Printf.printf "%s: %s\n" file msg;
          incr failures);
      let records = Recorder.records l.Recorder.log in
      (match
         Invariant.check_log
           ~machines:(Recorder.machines l.Recorder.log)
           records
       with
      | [] ->
          Printf.printf "%s: %d records, no invariant violations\n" file
            (List.length records)
      | vs ->
          Printf.printf "%s: %d invariant violation(s):\n" file
            (List.length vs);
          List.iter
            (fun v -> Format.printf "  %a@." Invariant.pp_violation v)
            vs;
          failures := !failures + List.length vs);
      if !failures > 0 then exit exit_regression
    in
    let info =
      Cmd.info "check"
        ~doc:
          "Validate a saved log: re-fold the digest chain against the \
           trailer and re-run the online invariant checkers."
    in
    Cmd.v info Term.(const run $ file_t)
  in
  let diff_cmd =
    let a_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"A") in
    let b_t = Arg.(required & pos 1 (some string) None & info [] ~docv:"B") in
    let run a_file b_file =
      let a = (load Recorder.of_jsonl a_file).Recorder.log
      and b = (load Recorder.of_jsonl b_file).Recorder.log in
      match Recorder.diff a b with
      | None ->
          Printf.printf "identical: %d records, digest %s\n" (Recorder.total a)
            (Recorder.digest_hex a)
      | Some d ->
          if d.Recorder.seq < 0 then
            Printf.printf "header divergence: %s = %s vs %s\n"
              d.Recorder.field d.Recorder.a d.Recorder.b
          else
            Printf.printf
              "first divergent event: seq %d, field %s: %s vs %s\n"
              d.Recorder.seq d.Recorder.field d.Recorder.a d.Recorder.b;
          exit exit_regression
    in
    let info =
      Cmd.info "diff"
        ~doc:
          "Compare two recorded logs event by event; exit 1 naming the \
           first divergent event."
    in
    Cmd.v info Term.(const run $ a_t $ b_t)
  in
  let timeline_cmd =
    let width_t =
      Arg.(
        value & opt int 64
        & info [ "width" ] ~doc:"Buckets across the run's round interval.")
    in
    let run file width =
      let l = load Recorder.of_jsonl file in
      print_string (Recorder.timeline ~width l.Recorder.log)
    in
    let info =
      Cmd.info "timeline"
        ~doc:
          "Render an ASCII per-round timeline of a recorded run: one lane \
           per ledger label, bucketed over the round clock."
    in
    Cmd.v info Term.(const run $ file_t $ width_t)
  in
  let info =
    Cmd.info "replay"
      ~doc:
        "Validate, diff, and visualize flight-recorder logs (cctree \
         --record)."
  in
  Cmd.group info [ check_cmd; diff_cmd; timeline_cmd ]

let main =
  let doc =
    "Analyze cc-bench runs, load profiles, traces, audits and flight-recorder \
     logs offline."
  in
  let info = Cmd.info "ccprof" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      summary_cmd; diff_cmd; heatmap_cmd; trace_cmd; timeline_cmd;
      history_cmd; audit_cmd; replay_cmd;
    ]

let () = exit (Cmd.eval main)
