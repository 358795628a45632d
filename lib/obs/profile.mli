(** Per-machine communication load profiles.

    A profile is the machine × label congestion matrix of one simulated run:
    for every ledger label, how many words each machine sent and received
    under it. It is a fold over the Net event stream, one
    {!Recorder.record} at a time ({!add}):
    [Cc_clique.Net.add_sink net (Profile.add p)] subscribes it to a live
    net, and [ccprof heatmap] feeds it the records of a flight-recorder log,
    so both render the same heatmap for the same run.

    The load of a machine is [max (sent, received)] words — the quantity
    Lenzen routing charges rounds for. The {e imbalance factor} compares the
    hottest machine against the perfectly balanced ideal:
    [imbalance = max_load / (total_words / machines)]. An imbalance of 1
    means the traffic pattern already spreads evenly (an all-to-all); an
    imbalance of [k] means the run pays [k] times the rounds a perfectly
    rebalanced schedule would. *)

type row = {
  label : string;  (** ledger label the traffic was booked under. *)
  sent : int array;  (** words sent per machine (length [machines]). *)
  recv : int array;  (** words received per machine. *)
}

type t = private {
  machines : int;
  lanes : (string, row) Hashtbl.t;  (** each label's row, keyed by label. *)
  total_sent : int array;  (** per-machine totals across all labels. *)
  total_recv : int array;
  mutable total_words : int;
      (** words booked by the folded primitives — the numerator of the
          balanced ideal (for Net's primitives, at least
          [max (sum sent, sum recv)]). *)
}

(** [create ~machines] is an empty profile of a [machines]-machine clique.
    @raise Invalid_argument if [machines < 1]. *)
val create : machines:int -> t

(** [add t r] folds one booked primitive into [t]: [r.sent.(i)] /
    [r.recv.(i)] words of machine [i] join [r.label]'s row and the
    per-machine totals, and [r.words] (the primitive's booked words) joins
    the balanced ideal's numerator. An analytic charge — both arrays
    empty — routes no traffic and is skipped.
    @raise Invalid_argument if the arrays are not both empty or both
    [machines] long. *)
val add : t -> Recorder.record -> unit

(** {1 Summary statistics} *)

(** [max_load t] is the hottest machine's load. *)
val max_load : t -> int

(** [imbalance t] is [max_load /. mean_load] — how many times more rounds
    the run's hottest machine costs than a perfectly balanced schedule.
    [1.0] when the profile carries no traffic. *)
val imbalance : t -> float

(** {1 Rendering} *)

(** [render ?max_width t] is an ASCII machine × label heatmap: one row per
    label (descending by peak load, ties by label) plus a totals row, one
    column per machine (machines are bucketed when there are more than
    [max_width], default 64, each cell then showing the bucket maximum).
    Cell intensity uses the ramp [" .:-=+*#%@"] scaled to the global
    maximum; a [^] marker under the totals row points at the hottest
    machine. A summary line reports max/mean/p50/p95 load and the imbalance
    factor. *)
val render : ?max_width:int -> t -> string
