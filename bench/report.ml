(* Machine-readable mirror of the benchmark tables.

   When the harness runs with [--json FILE], every experiment appends
   records here — one per table row, each carrying the experiment id, the
   row's parameters, the measured value, the paper bound it is compared
   against (when one exists), and their ratio — and the driver stamps each
   experiment with its wall-clock time. Without [--json] every call is a
   no-op, so the printed tables are byte-identical either way.

   Schema cc-bench/3 added a top-level [engine] object (domain count and
   strong-scaling speedup); it is no longer written, and readers skip it in
   older documents. Wall-clock rows carry no [bound], so they never produce
   ratios and the ccprof diff gate stays hardware-independent.

   Schema cc-bench/4 adds per-record statistical-quality columns: rows may
   carry a flat numeric "quality" object (audit-plane TV / KL / max-z / ESS,
   written by Q1 via [quality]) that Benchdata aggregates and ccprof summary
   renders. *)

module Json = Cc_obs.Json

let path : string option ref = ref None
let enable p = path := Some p
let enabled () = !path <> None

(* (id, title, wall seconds) in run order; records in reverse order. *)
let experiments : (string * string * float) list ref = ref []
let titles : (string, string) Hashtbl.t = Hashtbl.create 16
let records : Json.t list ref = ref []

(* (id, load profile) for every net an experiment subscribed via
   [subscribe_profile], newest first. An experiment's cc-bench/2 [max_load] is
   the hottest machine's total load ([Profile.max_load]) over those nets,
   its [imbalance] the worst imbalance. *)
let profiles : (string * Cc_obs.Profile.t) list ref = ref []

(* [reset] clears all accumulated rows so a second [write] in the same
   process starts from a clean slate instead of duplicating them. *)
let reset () =
  experiments := [];
  records := [];
  Hashtbl.reset titles;
  profiles := []

let set_title ~id ~title = Hashtbl.replace titles id title

(* [subscribe_profile ~id net] subscribes a load profile to a freshly
   created net for the experiment's cc-bench/2 fields. Experiments call it
   right after every [Net.create]; a no-op without [--json]. *)
let subscribe_profile ~id net =
  if enabled () then begin
    let p = Cc_obs.Profile.create ~machines:(Cc_clique.Net.n net) in
    Cc_clique.Net.add_sink net (Cc_obs.Profile.add p);
    profiles := (id, p) :: !profiles
  end

let finish_experiment ~id ~wall_s =
  if enabled () then
    let title = Option.value ~default:"" (Hashtbl.find_opt titles id) in
    experiments := (id, title, wall_s) :: !experiments

(* [record ~id ~params ?bound ?extra measured] appends one data point.
   [params] are (name, value) pairs identifying the row; [extra] carries
   auxiliary measurements (counters, secondary errors) verbatim. *)
let record ~id ~params ?bound ?(extra = []) measured =
  if enabled () then begin
    let base =
      [
        ("experiment", Json.String id);
        ("params", Json.Obj params);
        ("measured", Json.float_opt measured);
      ]
    in
    let bound_fields =
      match bound with
      | None -> []
      | Some b ->
          [
            ("bound", Json.float_opt b);
            ( "ratio",
              if b = 0.0 then Json.Null else Json.float_opt (measured /. b) );
          ]
    in
    records := Json.Obj (base @ bound_fields @ extra) :: !records
  end

let str s = Json.String s
let int i = Json.Int i
let flt x = Json.float_opt x

(* [quality kvs] packages audit-plane measurements as the cc-bench/4
   "quality" extra for [record]: [~extra:[quality [("tv", tv); ...]]]. *)
let quality kvs =
  ("quality", Json.Obj (List.map (fun (k, x) -> (k, Json.float_opt x)) kvs))

(* Every [--json] run also appends one env-fingerprinted line to the bench
   trajectory (default bench/HISTORY/history.jsonl, overridable or disabled
   — set to empty — via CC_BENCH_HISTORY): timestamp, host, OCaml version,
   and per-experiment wall plus mean paper-bound ratio.
   [ccprof history] renders the trends. Strictly best-effort: an unwritable
   path never fails the bench run. *)
let append_history ~fast =
  let file =
    match Sys.getenv_opt "CC_BENCH_HISTORY" with
    | Some "" -> None
    | Some p -> Some p
    | None -> Some (Filename.concat "bench/HISTORY" "history.jsonl")
  in
  match file with
  | None -> ()
  | Some file -> (
      let ratios : (string, float * int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun r ->
          match r with
          | Json.Obj fields -> (
              match
                ( List.assoc_opt "experiment" fields,
                  List.assoc_opt "ratio" fields )
              with
              | Some (Json.String id), Some (Json.Float x) ->
                  let s, n =
                    Option.value ~default:(0.0, 0)
                      (Hashtbl.find_opt ratios id)
                  in
                  Hashtbl.replace ratios id (s +. x, n + 1)
              | _ -> ())
          | _ -> ())
        !records;
      let line =
        Json.Obj
          [
            ("ts", flt (Unix.gettimeofday ()));
            ( "host",
              str (try Unix.gethostname () with Unix.Unix_error _ -> "?") );
            ("ocaml", str Sys.ocaml_version);
            ("fast", Json.Bool fast);
            ( "experiments",
              Json.List
                (List.rev_map
                   (fun (id, _title, wall_s) ->
                     Json.Obj
                       ([ ("id", str id); ("wall_s", flt wall_s) ]
                       @
                       match Hashtbl.find_opt ratios id with
                       | Some (s, n) when n > 0 ->
                           [ ("mean_ratio", flt (s /. float_of_int n)) ]
                       | _ -> []))
                   !experiments) );
          ]
      in
      try
        let dir = Filename.dirname file in
        (if dir <> "." && not (Sys.file_exists dir) then
           try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
        output_string oc (Json.to_string line);
        output_char oc '\n';
        close_out oc
      with Sys_error _ | Unix.Unix_error _ -> ())

let write ~fast =
  match !path with
  | None -> ()
  | Some file ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "cc-bench/4");
            ("fast", Json.Bool fast);
            ( "experiments",
              Json.List
                (List.rev_map
                   (fun (id, title, wall_s) ->
                     let load_fields =
                       match List.filter (fun (i, _) -> i = id) !profiles with
                       | [] -> []
                       | ps ->
                           let max_load =
                             List.fold_left
                               (fun acc (_, p) -> max acc (Cc_obs.Profile.max_load p))
                               0 ps
                           and imbalance =
                             List.fold_left
                               (fun acc (_, p) ->
                                 Float.max acc (Cc_obs.Profile.imbalance p))
                               0.0 ps
                           in
                           [
                             ("max_load", Json.Int max_load);
                             ("imbalance", Json.float_opt imbalance);
                           ]
                     in
                     Json.Obj
                       ([
                          ("id", Json.String id);
                          ("title", Json.String title);
                          ("wall_s", Json.float_opt wall_s);
                        ]
                       @ load_fields))
                   !experiments) );
            ("records", Json.List (List.rev !records));
            ("metrics", Cc_obs.Metrics.to_json ());
          ]
      in
      let oc = open_out file in
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n';
      close_out oc;
      append_history ~fast;
      reset ()
