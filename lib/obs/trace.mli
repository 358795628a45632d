(** Hierarchical tracing for the Congested Clique stack.

    A trace is a tree of {e spans} (named, timed regions of execution). Each
    metered {!Cc_clique.Net} primitive (exchange, broadcast, analytic
    charge) adds its cost to the spans open when it was booked; the
    primitives themselves are kept by the flight recorder
    ({!Recorder}), not here. Spans record three kinds of cost:

    - wall-clock time, from an injectable clock (deterministic in tests);
    - GC allocation (minor + major words allocated while the span was open);
    - simulated network cost — the rounds / messages / words booked by the
      metering layer while the span was open, attributed to {e every} open
      span on the stack. Per-phase round attribution therefore nests: a
      phase span's rounds include its children's, and the round totals of a
      run's top-level spans sum to [Net.rounds].

    Tracing is {b off by default and zero-cost when off}: [with_span] without
    an installed collector is a single [ref] read plus the wrapped call. Observability never perturbs the simulation — it
    draws no randomness and never touches the ledger, so an instrumented run
    is bit-identical to a bare one.

    Exporters: a human-readable span tree ({!pp_tree}), JSON-lines
    ({!to_jsonl}, reloadable with {!of_jsonl}), and Chrome [trace_event] JSON
    ({!to_chrome_json}) loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

type span = {
  id : int;
  name : string;
  args : (string * string) list;  (** key/value annotations, set at open. *)
  depth : int;  (** 0 for top-level spans. *)
  start_ts : float;  (** clock seconds at open. *)
  mutable stop_ts : float;  (** clock seconds at close. *)
  mutable alloc_words : float;  (** GC words allocated inside the span. *)
  mutable net_rounds : float;  (** rounds booked while the span was open. *)
  mutable net_messages : int;
  mutable net_words : int;
  mutable net_max_load : int;
      (** largest single-primitive per-machine load (words) booked while the
          span was open — the congestion that drove the span's rounds. *)
  mutable children : span list;  (** completed children, in start order. *)
}

type t

(** [create ?clock ()] builds an empty collector. [clock] returns seconds
    (default [Unix.gettimeofday]; inject a counter for deterministic tests).
    [max_events] is ignored: a trace keeps no event timeline. *)
val create : ?clock:(unit -> float) -> ?max_events:int -> unit -> t

(** [enabled ()] is true while a collector is installed. *)
val enabled : unit -> bool

(** [with_trace t f] makes [t] the process-wide active collector for the
    duration of [f], restoring the previously active collector (if any)
    afterwards, exceptions included. It is the only way to install one. *)
val with_trace : t -> (unit -> 'a) -> 'a

(** [with_span ?args name f] runs [f] inside a span named [name]. Without an
    active collector this is just [f ()]. The span is closed (and recorded)
    even if [f] raises. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [net_event ~rounds ~messages ~words ~max_load] feeds one metered
    primitive into the active collector: the cost is added to every open
    span, [max_load] is folded into each span's running maximum, and the
    booking is counted. Called by the {!Cc_clique.Net} booking layer; no-op
    without an active collector. *)
val net_event : rounds:float -> messages:int -> words:int -> max_load:int -> unit

(** {1 Inspection} *)

(** [roots t] is the completed top-level spans, in start order. Spans still
    open are not included. *)
val roots : t -> span list

(** [dropped_events t] is the number of {!net_event} bookings [t] saw while
    installed. The name is kept for callers that count net events through
    it; no event is stored, so none is dropped. *)
val dropped_events : t -> int

(** {1 Self time} *)

(** One row per span name. A span's self cost is its own minus its
    children's, so a nested phase is never counted twice. A trace has one
    lane, so the rows say what the run was waiting on. *)
type self_row = {
  span : string;  (** the span name. *)
  self_s : float;  (** wall minus the completed children's walls. *)
  self_alloc : float;  (** [alloc_words] minus the children's. *)
  self_rounds : float;  (** [max 0 (net_rounds - children's net_rounds)]. *)
  share : float;  (** [self_s /. total_s], 0 when [total_s] is 0. *)
}

type self_times = {
  total_s : float;  (** last span stop minus first span start. *)
  covered_s : float;  (** the root spans' summed walls. *)
  gap_s : float;  (** [total_s -. covered_s]: instants with no open span. *)
  rows : self_row list;  (** largest [self_s] first, ties by name. *)
}

(** [self_times t] folds the completed spans of [t] (stop not NaN and not
    before start); with none, there are no rows and every total is 0. *)
val self_times : t -> self_times

(** [self_share rows ~name] is [name]'s {!self_row.share}, or 0 when no row
    has that name: the quantity [ccprof trace --budget NAME=FRAC] gates on. *)
val self_share : self_row list -> name:string -> float

(** {1 Exporters} *)

(** [pp_tree fmt t] renders the span tree with per-span wall-clock,
    allocation, and rounds/messages/words. *)
val pp_tree : Format.formatter -> t -> unit

(** [to_chrome_json t] is Chrome [trace_event] JSON ([{"traceEvents": ...}]):
    spans as complete (["ph":"X"]) events with microsecond timestamps
    relative to the trace start, carrying their rounds/words in [args]. *)
val to_chrome_json : t -> string

(** [to_jsonl t] is one JSON object per line, one line per span
    (depth-first, in start order). Timestamps are seconds relative to the
    first span's start. The format {!of_jsonl} reloads. *)
val to_jsonl : t -> string

(** [of_jsonl s] reconstructs a collector's span trees from a {!to_jsonl}
    artifact (rebuilt from the depth-first flattening) for offline analysis
    ([ccprof trace] / [timeline]). Net-event lines ([{"type":"event"}]),
    which older artifacts hold after their spans, are skipped. Lines are
    read by {!Json.fold_lines}, so the error names the first offending
    physical line. *)
val of_jsonl : string -> (t, string) result
