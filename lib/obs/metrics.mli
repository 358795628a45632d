(** Process-wide registry of named counters, gauges, and histograms.

    Instrumented code reports by name ([Metrics.incr "doubling.iterations"]);
    the registry lazily creates the instrument on first use. Recording is
    cheap (one hashtable lookup and an in-place field update — no allocation
    on the hot path), draws no randomness, and never touches the simulation
    state, so instrumented runs are bit-identical to bare ones. The registry
    is global: benchmarks and tests that need isolation call {!reset} first.

    Conventions: dotted lowercase names, [subsystem.metric] (e.g.
    ["net.retransmits"], ["sampler.phases"], ["fixed.round_error"]). A name
    is permanently bound to its first-used instrument kind; mixing kinds
    under one name raises [Invalid_argument]. *)

(** Exported summary of a histogram. Beyond count/sum/min/max, observations
    are folded into fixed power-of-two log buckets (bucket [i] covers
    [[2^(i-64), 2^(i-63))]; bucket 0 is everything non-positive or below
    [2^-63]), from which deterministic percentile estimates are derived:
    [p50]/[p95]/[p99] are the upper bound of the bucket where the cumulative
    count crosses the rank, clamped into [[min, max]]. Bucketing is exact
    arithmetic on the float exponent — no randomness, no sampling — so equal
    observation streams give equal summaries. *)
type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : (int * int) list;
      (** sparse [(bucket index, count)] pairs, ascending, zeros omitted. *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

(** [incr ?by name] adds [by] (default 1) to counter [name]. *)
val incr : ?by:int -> string -> unit

(** [set_gauge name x] sets gauge [name] to [x]. *)
val set_gauge : string -> float -> unit

(** [observe name x] folds [x] into histogram [name] (count/sum/min/max and
    the log bucket of [x]). Allocation-free after the instrument exists. *)
val observe : string -> float -> unit

(** [snapshot ()] is every instrument, sorted by name. *)
val snapshot : unit -> (string * value) list

(** [reset ()] empties the registry. *)
val reset : unit -> unit

(** {1 Serialization} *)

(** [value_of_json j] reads back one instrument value of {!to_json}'s
    object, which [ccprof summary] reads. Histogram buckets serialize as
    sparse [[index, count]] pairs. *)
val value_of_json : Json.t -> (value, string) result

(** [pp fmt ()] renders the registry, one instrument per line (histograms
    with mean, min/max, and p50/p95/p99). *)
val pp : Format.formatter -> unit -> unit

(** [to_json ()] is the registry as a JSON object keyed by name. *)
val to_json : unit -> Json.t
