(** Critical-path extraction over a trace.

    Given a {!Trace.t}, the analysis asks: {e which span was the run waiting
    on at each instant?} It answers with the longest dependent chain — a
    backward sweep from the last span end, at each step attributing the
    interval to the {b innermost most-recently started} active span, back to
    the point where a later-started span (a child) last ended and takes
    over. An enclosing phase is therefore charged only the slices where none
    of its descendants were running — self time, not inclusive time.

    The chain tiles the run: the sum of segment walls plus uncovered gaps
    equals end-to-end wall. With a root span wrapping the workload (the
    binaries' [--trace-out] paths install one), the chain covers end-to-end
    wall exactly.

    Attribution is {e self}-based so nested phases don't double-count: a
    segment belongs to the innermost active span, and a span's rounds are
    its own minus its children's. *)

type segment = {
  span_id : int;
  name : string;
  start_s : float;  (** seconds from the trace origin. *)
  stop_s : float;
}

(** One attribution row per phase name. *)
type row = {
  phase : string;
  self_s : float;  (** chain time attributed to this phase. *)
  rounds : float;  (** self-rounds (span rounds minus children's). *)
  share : float;  (** [self_s /. total_s]. *)
}

type t = {
  total_s : float;  (** end-to-end wall: last span end − first span start. *)
  covered_s : float;  (** chain time (sum of segment walls). *)
  gap_s : float;  (** [total_s -. covered_s]: instants with no open span. *)
  chain : segment list;  (** the critical path, in time order. *)
  rows : row list;  (** attribution, largest [self_s] first. *)
}

(** [compute trace] is [None] when [trace] holds no completed span. *)
val compute : Trace.t -> t option

(** [share rows ~phase] is the {!row.share} of phase [phase] ([0.] when it
    is not on the chain) — the quantity [ccprof critical-path --budget
    phase=frac] gates on. *)
val share : row list -> phase:string -> float
