(** Online invariant checking over the Net event stream.

    A monitor consumes the canonical {!Recorder.record} stream and checks,
    as each record arrives, that the simulator respected the Congested
    Clique model. The catalogue:

    - [lenzen_cap] — no machine sent or received more than [rounds * n]
      words in a primitive booked at [rounds] rounds (Lenzen's routing
      budget, the substrate assumption behind every round count we
      reproduce);
    - [conservation] — per-kind flow balance: an exchange / all-to-all
      delivers exactly the words it sends, a broadcast delivers [n - 1]
      copies of its payload, an analytic charge moves nothing. Injected drops never
      unbalance a booked record — the metering layer books retransmission
      waves as ordinary [:retry] exchanges;
    - [monotonic] — the round clock never runs backwards and each record
      advances it by exactly its own rounds;
    - [ledger] — end-of-run reconciliation ({!check_ledger}): per-label and
      total rounds/messages/words accumulated from events must equal the
      net's ledger;
    - [shape] — structural sanity (array lengths, negative costs,
      [max_load] consistency, unknown kinds).

    Every violation is recorded in the monitor and counted in the Metrics
    registry ([invariant.violations] plus one counter per catalogue entry);
    [cctree --record] lists them on stderr and exits 1. Checking is pure
    observation and never perturbs the run.

    Subscribe a monitor to a live net with
    [Cc_clique.Net.add_sink net (fun r -> ignore (Invariant.observe inv r))]
    right after [Cc_clique.Net.create], and reconcile with
    [Cc_clique.Net.ledger_violations]. *)

type violation = {
  invariant : string;  (** catalogue entry, e.g. ["lenzen_cap"]. *)
  seq : int option;  (** offending event, when tied to one. *)
  label : string;  (** ledger label ([<totals>] for run totals). *)
  machine : int option;  (** offending machine, for per-machine checks. *)
  round : float option;  (** round clock at the offending event. *)
  detail : string;  (** human-readable specifics. *)
}

type t

(** [create ~machines ()] builds a monitor for a [machines]-machine clique
    whose round clock starts at 0. *)
val create : machines:int -> unit -> t

(** [observe t r] checks one record, returning (and recording) the new
    violations — [[]] when the record is clean. *)
val observe : t -> Recorder.record -> violation list

(** [check_ledger t ~ledger ~rounds ~messages ~words] reconciles the
    accumulated event stream against a net's per-label ledger and totals;
    call once at end of run. *)
val check_ledger :
  t ->
  ledger:(string * float * int * int) list ->
  rounds:float ->
  messages:int ->
  words:int ->
  violation list

(** [violations t] is every violation recorded so far, in detection order. *)
val violations : t -> violation list

val count : t -> int

(** [check_log ~machines records] runs a fresh monitor over a full record
    list (e.g. a reloaded {!Recorder} log) and returns its violations. The
    ledger check needs the live net and is not included. *)
val check_log : machines:int -> Recorder.record list -> violation list

val pp_violation : Format.formatter -> violation -> unit
