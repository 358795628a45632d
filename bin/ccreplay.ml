(* ccreplay — validate, diff, and visualize Net flight-recorder logs (see
   Cc_obs.Recorder / Cc_obs.Invariant and DESIGN.md §9). The logs come from
   [cctree sample|doubling --record FILE].

     check FILE            reload a log, verify its digest chain, re-run
                           the online invariant checkers
     diff A B              compare two logs to the first divergent event
     timeline FILE         ASCII per-round timeline of a recorded run

   Exit codes match ccprof: 0 ok; 1 divergence / failed validation;
   2 unreadable or malformed input. *)

module Recorder = Cc_obs.Recorder
module Invariant = Cc_obs.Invariant
open Cmdliner

let exit_divergence = 1
let exit_bad_input = 2

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
  let doc = "Validate, diff, and visualize Net flight-recorder logs." in
  let info = Cmd.info "ccreplay" ~version:"1.0.0" ~doc in
  Cmd.group info [ check_cmd; diff_cmd; timeline_cmd ]

let () = exit (Cmd.eval main)
