(** Flight recorder for the Net event stream.

    A recorder captures one canonical {!record} per booked Net primitive —
    kind, label, round interval, per-machine sent/received words, and the
    fault-layer outcome counters at booking time — into a bounded in-memory
    log with a running {e chain digest}: an FNV-1a 64-bit fold over the
    compact JSON serialization of the header and of every record, in order.
    Two runs produce the same digest iff they booked byte-identical event
    streams, which makes the digest a cheap determinism check (same seed →
    same digest) and the log a replay artifact that {!diff} can compare to
    the first divergent event.

    One writer defines every record line, for the digest and for
    {!to_jsonl} alike: it appends the line's bytes straight into a buffer
    the recorder owns, and the digest folds them there, so recording builds
    no JSON tree and no intermediate string per event.

    The record type is the net's event type: [Cc_clique.Net] builds one per
    booked primitive and hands it to every subscriber, so a recorder is
    subscribed with [Cc_clique.Net.add_sink net (Recorder.add r)]. Like
    every observability layer here it is pure observation: it never
    touches the ledger or draws randomness. *)

type record = {
  seq : int;
      (** the net's booking index, from 0 — the record's position in the
          stream of a recorder subscribed right after the net's creation. *)
  kind : string;  (** primitive wire name: ["exchange"], ["broadcast"], … *)
  label : string;  (** ledger label the cost was booked under. *)
  round_start : float;
      (** round clock when the primitive began ([round_end -. rounds]). *)
  round_end : float;  (** round clock after booking. *)
  rounds : float;
  messages : int;
  words : int;
  max_load : int;
  sent : int array;
      (** words each machine sent in this primitive — one slot per machine,
          or [[||]] for analytic charges that route no traffic. *)
  recv : int array;  (** words each machine received; same shape as [sent]. *)
  retransmits : int;  (** net-wide retransmitted packets so far (running). *)
  dropped : int;  (** net-wide dropped transmission attempts so far. *)
}

type t

(** [create ~machines ()] builds an empty recorder for a [machines]-machine
    clique. At most [max_records] records (default [200_000]) are kept in
    memory; excess records still extend the digest chain but are dropped
    from the log ({!total} still counts them). [~max_records:0] keeps
    the digest chain and nothing else: that is what ccserve attaches to
    each request, since it reports only {!digest_hex}. *)
val create : ?max_records:int -> machines:int -> unit -> t

(** [add t r] writes [r]'s line as it stands, [seq] and [round_start]
    included, and extends the digest with it; while fewer than
    [max_records] are stored it keeps [r] itself. The digest never depends
    on storage.
    @raise Invalid_argument if [sent]/[recv] are not both empty or both of
    length [machines]. *)
val add : t -> record -> unit

val machines : t -> int

(** [records t] is the stored log, in event order. *)
val records : t -> record list

(** [total t] counts every record ever added (stored or not). *)
val total : t -> int

(** [digest_hex t] is the running chain digest as ["fnv64:<16 hex digits>"].
    Byte-identical event streams — and only those — agree on it. *)
val digest_hex : t -> string

(** [fnv64_hex s] is the FNV-1a 64-bit fold of [s]'s bytes from the
    standard basis, the fold {!digest_hex} chains over a log's lines, in
    the same ["fnv64:<16 hex digits>"] form. *)
val fnv64_hex : string -> string

(** {1 JSONL export / reload}

    The export is one JSON object per line: a header
    [{"type":"recorder","version":1,"machines":n}], one
    [{"type":"record",…}] line per stored record, and a trailer
    [{"type":"digest","digest":…,"records":total,"stored":stored}]. The
    digest chain folds the header line and every record line exactly as
    written, so a reloaded log re-folds the raw lines it read and can
    verify the trailer without re-serializing. *)

val to_jsonl : t -> string

type loaded = {
  log : t;
  trailer_digest : string option;  (** digest claimed by the trailer. *)
  trailer_records : int option;  (** total records claimed by the trailer. *)
}

(** [of_jsonl s] parses an export. [Error] on structural problems (bad
    header, missing record fields, lines after the trailer), naming the
    physical line as {!Json.fold_lines} numbers it; the digest chain
    re-folds each line's bytes as the file holds them. *)
val of_jsonl : string -> (loaded, string) result

(** [verify l] checks the reloaded digest chain against the trailer:
    [Ok digest] when they agree, [Error] when the trailer is missing, the
    log was truncated by the record cap (digest not verifiable), or the
    recomputed digest disagrees (the file was altered). *)
val verify : loaded -> (string, string) result

(** {1 Divergence diffing} *)

type divergence = {
  seq : int;  (** event position, or [-1] for a header mismatch. *)
  field : string;  (** first differing field (["presence"] for a missing event). *)
  a : string;  (** rendering of the field in the first log. *)
  b : string;
}

(** [diff a b] is the first divergent event between two logs, comparing
    records field by field in stream order ([None] when identical). *)
val diff : t -> t -> divergence option

(** [timeline ~width t] renders an ASCII per-round timeline: one lane per
    label (first-appearance order), the run's round interval bucketed into
    [width] columns (at least 8), cell intensity = the fraction of that
    bucket's rounds booked under the lane's label. *)
val timeline : width:int -> t -> string
