(** The Congested Clique communication model (Section 2.1 of the paper).

    [n] machines with IDs [0 .. n-1] communicate in synchronous rounds. In
    one round each machine may send and receive O(n) messages of O(log n)
    bits each; by Lenzen's routing theorem the destinations are unrestricted
    as long as no machine sends or receives more than n messages. This module
    is the metering layer every distributed algorithm in the repository moves
    its data through: an [exchange] of packets is charged
    [ceil(max-per-machine load / n)] rounds, and a ledger records rounds,
    messages, and words per algorithm-supplied label.

    One {e word} is the paper's O(log n)-bit message unit: it can carry a
    constant number of vertex IDs or one limb of a fixed-point probability.
    [words_for_bits] converts a bit count into words at the current n.

    Local computation is unbounded in the model, so the simulator performs
    machine-local steps inline; only communication affects the ledger. *)

type t

(** [create ~n] builds a clique of [n >= 2] machines (perfectly reliable
    unless armed with {!with_faults}). *)
val create : n:int -> t

(** [with_faults f t] arms the net with the fault injector [f] and returns
    [t] (chainable: [Net.create ~n |> Net.with_faults f]). From then on every
    booked primitive advances the injector's round clock — firing scheduled
    crash-stop failures at round boundaries — and the {!reliable_exchange} /
    {!reliable_broadcast} primitives draw per-message drop/corruption
    verdicts from it.
    @raise Invalid_argument if the crash schedule names a machine [>= n]. *)
val with_faults : Fault.t -> t -> t

val n : t -> int

(** [faults t] is the injector the net is armed with, if any. *)
val faults : t -> Fault.t option

(** {1 Packets and exchanges} *)

type packet = { src : int; dst : int; words : int }
(** A point-to-point payload of [words] words. [src = dst] packets are free
    (local memory) but validated. *)

(** [exchange t ~label packets] delivers all packets in
    [ceil(L / n)] rounds where [L] is the maximum number of words any single
    machine sends or receives — Lenzen routing. The packets' payloads are
    carried by the caller; the simulator only meters them.
    @raise Invalid_argument on out-of-range machine IDs or negative sizes. *)
val exchange : t -> label:string -> packet list -> unit

(** [broadcast t ~label ~src ~words] delivers the same [words]-word payload
    from [src] to every machine via a two-step broadcast tree ([src] scatters
    n shares of [ceil (words / n)] words, every machine re-broadcasts its
    share). Booked as [max 1 (ceil (words / n))] rounds — the standard
    O(ceil(W/n) + 1) accounting, with the tree's constant factor folded into
    the big-O. *)
val broadcast : t -> label:string -> src:int -> words:int -> unit

(** {1 Reliable delivery under fault injection}

    When the net carries a {!Fault.t}, the plain primitives above stay
    fault-oblivious (they model traffic whose loss the algorithm handles at
    a higher level); the [reliable_*] variants implement ack + bounded
    retransmission with exponential round backoff. Every retransmission wave
    is metered under the original label with a [":retry"] suffix (and
    straggler delays under [":straggle"]); the extra rounds are also
    accumulated in {!overhead_rounds}. Without a fault injector they degrade
    to the plain primitives and report every packet [Delivered]. *)

(** Per-packet outcome of a reliable primitive. *)
type delivery =
  | Delivered  (** arrived intact (possibly after retransmissions). *)
  | Corrupted
      (** arrived with a payload bit flip the transport cannot detect;
          surfaced so the application layer can checksum and re-run. *)
  | Lost
      (** undeliverable: an endpoint crashed or the retransmission budget
          ([Fault.spec.max_retries]) was exhausted. *)

(** [reliable_exchange t ~label packets] is {!exchange} with per-packet
    delivery tracking; result index [i] is the outcome of the [i]-th packet
    of [packets]. Fault verdicts are drawn in packet order, so a fixed packet
    order plus a fixed fault seed gives a bit-identical outcome. *)
val reliable_exchange : t -> label:string -> packet list -> delivery array

(** [reliable_broadcast t ~label ~src ~words] is {!broadcast} with per-
    destination delivery tracking (index = machine; [src]'s own slot is
    always [Delivered]). A crashed source loses every recipient. *)
val reliable_broadcast :
  t -> label:string -> src:int -> words:int -> delivery array

(** [all_to_all t ~label ~words_each] is the dense pattern in which every
    machine sends [words_each] words to every other machine —
    [max 1 words_each] rounds. Used by the transpose step of the
    Initialization (every machine i sends P^k[i,j] to machine j). *)
val all_to_all : t -> label:string -> words_each:int -> unit

(** [charge t ~label rounds] books rounds for a primitive whose cost is known
    analytically rather than routed (e.g. fast matrix multiplication with the
    Charged backend).
    @raise Invalid_argument if [rounds] is negative or not finite. *)
val charge : t -> label:string -> float -> unit

(** [charge_overhead t ~label rounds] is {!charge} that also counts the
    rounds toward {!overhead_rounds} — for algorithm-level fault recovery
    (checkpoint restores, recomputation) booked under [":retry"] labels. *)
val charge_overhead : t -> label:string -> float -> unit

(** [note_overhead t rounds] counts already-booked rounds toward
    {!overhead_rounds} without booking them again (used when a recovery wave
    was routed through {!reliable_exchange} under a recovery label). *)
val note_overhead : t -> float -> unit

(** {1 Accounting} *)

val rounds : t -> float
val words : t -> int

(** [retransmits t] counts packets retransmitted by the reliable layer. *)
val retransmits : t -> int

(** [dropped t] counts transmission attempts that failed (dropped by the
    injector, or addressed to/from a crashed machine). *)
val dropped : t -> int

(** [overhead_rounds t] is the total rounds booked for fault recovery
    (retransmission waves, backoff waits, straggler delays) — the metered
    price of running over an unreliable network. *)
val overhead_rounds : t -> float

(** [ledger t] is the per-label (rounds, messages, words) breakdown, sorted
    by descending rounds with ties broken by label (deterministic across
    runs). *)
val ledger : t -> (string * float * int * int) list

(** {1 Observability}

    Every booked primitive is mirrored to two places {e after} the ledger
    update: the per-net event bus ({!add_sink} subscribers, called in
    subscription order), which the flight recorder, the invariant monitor
    and the load profile read, and the process-wide {!Cc_obs.Trace}
    collector (when one is installed), which adds the primitive's rounds,
    messages, words and peak load to its open spans and keeps no record of
    the primitive itself. Neither path touches the ledger or draws
    randomness, so an observed run is bit-identical to a bare one. *)

(** [add_sink t f] subscribes [f] to the event bus: for every primitive
    booked from now on it is called once, after earlier subscribers, with
    one {!Cc_obs.Recorder.record} that every subscriber shares.
    - [seq] is the net's booking index, counted from 0 at {!create}, so a
      sink subscribed after [k] bookings first sees [seq = k];
    - [kind] is the primitive's wire name (["exchange"], ["broadcast"],
      ["all_to_all"] or ["charge"]);
    - [round_end] is {!rounds} right after the booking and [round_start]
      is [round_end -. rounds];
    - [max_load] is the most words any one machine sent or received — the
      load Lenzen routing charges [ceil (load / n)] rounds for, [0] for a
      {!charge};
    - [sent] and [recv] hold each machine's words ([[||]] for a charge,
      which routes no traffic);
    - [retransmits] and [dropped] are {!retransmits} and {!dropped} at
      booking time.

    The net never touches a record again once a sink has it, so a sink may
    keep it, arrays included. Subscribe right after {!create} for a log
    that covers the whole run. *)
val add_sink : t -> (Cc_obs.Recorder.record -> unit) -> unit

(** [ledger_violations t inv] reconciles the event stream [inv] has seen
    against [t]'s ledger and totals ({!Cc_obs.Invariant.check_ledger});
    call once at end of run, with [inv] subscribed since [t]'s creation. *)
val ledger_violations : t -> Cc_obs.Invariant.t -> Cc_obs.Invariant.violation list

(** [words_for_bits t bits] is the number of O(log n)-bit words needed to
    carry [bits] bits at this clique size (word size = max 8 (ceil(log2 n))). *)
val words_for_bits : t -> int -> int

(** [entry_words t] is the number of words carrying one fixed-point matrix
    entry of O(log^2 n) bits (Section 3.5) — i.e. [words_for_bits] of
    [log2 n * log2 n], at least 1. *)
val entry_words : t -> int

(** [pp_fault_summary fmt t] prints the one-line retransmit/drop/overhead
    summary. *)
val pp_fault_summary : Format.formatter -> t -> unit

(** [ledger_table t] is the ledger as a {!Cc_util.Table.t} with a share
    column (per-label rounds as a percentage of the total). *)
val ledger_table : t -> Cc_util.Table.t

(** [pp_ledger fmt t] pretty-prints the totals, fault summary, and ledger
    table. *)
val pp_ledger : Format.formatter -> t -> unit
