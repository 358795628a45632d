(** Parsed [cc-bench/*] benchmark documents and baseline diffing.

    The bench harness's [--json FILE] flag writes one JSON document per run
    (schema [cc-bench/1]; [cc-bench/2] adds per-experiment load fields;
    [cc-bench/3] added a top-level engine object, which is no longer
    written and is not read; [cc-bench/4] adds per-record
    statistical-quality columns from the audit plane).
    This module reads those documents back, aggregates the per-row records
    into per-experiment summaries, and diffs two runs by their measured/bound
    ratios — the seed-deterministic quantity a regression gate can pin. The
    [ccprof] CLI is a thin shell over these functions. *)

type record = {
  experiment : string;  (** experiment id the row belongs to. *)
  params : (string * string) list;  (** row parameters, values stringified. *)
  measured : float option;
  bound : float option;  (** the paper bound, when the row has one. *)
  ratio : float option;  (** [measured /. bound]; [None] without a bound. *)
  quality : (string * float) list;
      (** cc-bench/4: flat numeric quality measurements (audit TV, KL,
          max |z|, ESS, ...); [[]] in earlier schemas. *)
}

type experiment = {
  id : string;
  title : string;
  wall_s : float option;
  max_load : int option;  (** cc-bench/2: hottest per-machine word load. *)
  imbalance : float option;  (** cc-bench/2: max over the run's nets. *)
}

type doc = {
  schema : string;  (** ["cc-bench/1"] to ["cc-bench/4"]. *)
  fast : bool;
  experiments : experiment list;  (** in run order. *)
  records : record list;  (** in emission order. *)
}

(** [of_json v] interprets an already-parsed JSON document. *)
val of_json : Json.t -> (doc, string) result

(** [of_string s] parses and interprets a document. *)
val of_string : string -> (doc, string) result

(** [load file] reads and parses [file]. I/O errors become [Error _]. *)
val load : string -> (doc, string) result

(** {1 Aggregation} *)

type agg = {
  exp : experiment;
  rows : int;  (** records under this experiment id. *)
  mean_ratio : float option;  (** mean over rows carrying a ratio. *)
  worst_ratio : float option;  (** max over rows carrying a ratio. *)
  quality : (string * float) list;
      (** per-key means over rows carrying that quality key, first-seen key
          order; [[]] when no row carried quality data. *)
}

(** [aggregate doc] summarizes each experiment: its row count plus the mean
    and worst measured/bound ratio. Experiments appear in run order;
    experiment ids found only in records are appended (with an empty
    title). *)
val aggregate : doc -> agg list

(** {1 Baseline diff} *)

type delta = {
  id : string;
  old_ratio : float;
  new_ratio : float;
  change : float;
      (** relative change [(new - old) / max (abs old) eps]; positive means
          the ratio — and so the gap to the paper bound — worsened. *)
}

type diff = {
  threshold : float;
  regressions : delta list;  (** [change > threshold], worst first. *)
  improvements : delta list;  (** [change < -. threshold], best first. *)
  unchanged : delta list;  (** within [±threshold], run order. *)
  only_old : string list;  (** experiments the new run dropped. *)
  only_new : string list;  (** experiments the old run lacked. *)
}

(** [diff ?threshold ~baseline current] compares per-experiment mean ratios
    ([threshold] defaults to [0.10], i.e. a 10% relative worsening is a
    regression). Experiments without a ratio on either side are ignored;
    experiments present on only one side are reported but never count as
    regressions. *)
val diff : ?threshold:float -> baseline:doc -> doc -> diff
