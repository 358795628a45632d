(** Deterministic fault injection for the Congested Clique simulator.

    The paper's model (Section 2.1) assumes a perfectly reliable synchronous
    clique. This module relaxes that assumption behind the {!Net} primitives:
    a [Fault.t] carries a seeded schedule of per-message drops, payload
    corruption (bit flips in fixed-point words), crash-stop machine failures
    at round boundaries, and straggler delays. Every decision is drawn from a
    private {!Cc_util.Prng} stream derived from [spec.seed], so a run is
    bit-reproducible from [(algorithm seed, fault seed)] and the fault stream
    never perturbs the algorithm's own randomness.

    The transport-level recovery (ack + bounded retransmission with
    exponential round backoff) lives in {!Net.reliable_exchange} /
    {!Net.reliable_broadcast}; algorithm-level healing (tuple re-routing,
    iteration re-runs, sequential fallback) lives in [Cc_doubling.Doubling]
    and [Cc_sampler.Sampler] and reports through the {!health} type. *)

(** {1 Fault specification} *)

type spec = {
  drop_prob : float;  (** per-transmission drop probability, in [0, 1). *)
  corrupt_prob : float;
      (** per-transmission probability of undetected payload corruption
          (a bit flip in one fixed-point word), in [0, 1). *)
  straggle_prob : float;
      (** per-primitive probability that a straggler delays the round, in
          [0, 1). Each straggle costs a geometric number of extra rounds. *)
  max_retries : int;
      (** retransmission budget per packet before it is declared lost. *)
  crashes : (int * float) list;
      (** crash-stop schedule: [(machine, round)] pairs; the machine fails
          permanently at the first round boundary at or after [round]. *)
  seed : int;  (** seed of the private fault PRNG stream. *)
}

(** [default_spec] injects nothing: all probabilities 0, no crashes,
    [max_retries = 8], [seed = 0]. *)
val default_spec : spec

(** [spec ?drop_prob ?corrupt_prob ?straggle_prob ?max_retries ?crashes ?seed ()]
    builds a [spec] by overriding fields of {!default_spec}. *)
val spec :
  ?drop_prob:float ->
  ?corrupt_prob:float ->
  ?straggle_prob:float ->
  ?max_retries:int ->
  ?crashes:(int * float) list ->
  ?seed:int ->
  unit ->
  spec

type t

(** [create spec] builds a fault injector.
    @raise Invalid_argument if a probability is outside [0, 1) or
    [max_retries < 0]. *)
val create : spec -> t

val spec_of : t -> spec

(** {1 Per-transmission decisions}

    Decisions are consumed in call order from the private stream; callers
    must evaluate packets in a deterministic order. *)

type verdict = Deliver | Drop | Corrupt

(** [attempt t] draws the fate of one transmission attempt (crash state is
    the caller's concern — see {!is_crashed}). Updates the drop/corruption
    counters. *)
val attempt : t -> verdict

(** [straggle_rounds t] is the straggler delay for one primitive: 0 with
    probability [1 - straggle_prob], otherwise 1 + Geometric(1/2) extra
    rounds. *)
val straggle_rounds : t -> int

(** {1 Crash-stop failures} *)

(** [advance t ~now] is called at every round boundary ([now] = total rounds
    booked so far): machines whose scheduled crash round is [<= now] fail
    permanently. *)
val advance : t -> now:float -> unit

val is_crashed : t -> int -> bool

(** [crashed t] is the sorted list of failed machines. *)
val crashed : t -> int list

val any_crashed : t -> bool

(** [next_live t ~n from] is the first non-crashed machine at or after [from]
    (mod [n]), scanning circularly, or [None] iff every machine in [0, n) has
    failed.

    Contract: [from] may be any integer (it is reduced mod [n], so negative
    and out-of-range start indices are fine), and the all-crashed answer is
    [None] {e for every} start index — the result never depends on where the
    circular scan begins. Machines outside [0, n) in the crash schedule are
    ignored.
    @raise Invalid_argument if [n <= 0]. *)
val next_live : t -> n:int -> int -> int option

(** {1 Recovery metrics}

    Monotone counters across the injector's lifetime; algorithms snapshot
    them before/after a run to report {!health}. *)

val note_retransmit : t -> int -> unit
val note_reroute : t -> int -> unit
val note_rerun : t -> unit

(** {1 Structured recovery outcomes} *)

type failure = { reason : string; crashed : int list }

type health =
  | Healthy  (** no fault touched the run. *)
  | Healed of { retransmits : int; reroutes : int; reruns : int }
      (** faults occurred and were fully recovered; the output is exactly as
          trustworthy as a fault-free run. *)
  | Unrecoverable of failure
      (** the distributed computation could not be healed; the caller
          degraded to a fallback (documented per algorithm) instead of
          raising. *)

(** [health_of t ~before:(retransmits, reroutes, reruns)] classifies a run
    from counter deltas: [Healthy] if nothing changed, else [Healed]. *)
val health_of : t -> before:int * int * int -> health

(** [snapshot t] is [(retransmits, reroutes, reruns)] for {!health_of}. *)
val snapshot : t -> int * int * int

val pp_health : Format.formatter -> health -> unit
