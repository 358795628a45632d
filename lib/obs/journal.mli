(** Bounded, structured lifecycle-event journal.

    [ccserve] appends one timestamped record per lifecycle transition —
    start, accept, request, done, error, close, drain, stop — carrying the
    connection involved and a free-form cause. The log is bounded
    (drop-oldest beyond [cap], with a counter of what was lost) so a
    long-running daemon can keep one without unbounded growth.

    The journal is pure observability: recording draws no randomness and
    never touches model state, so runs with and without a journal are
    bit-identical.

    Export is JSONL, one event per line ([ccserve --health-log]);
    [ccprof events] renders the same format. *)

type event = {
  seq : int;  (** global append index, monotone even across drops. *)
  t_s : float;  (** seconds since the journal was created. *)
  kind : string;
      (** ["serve_start"], ["serve_accept"], ["serve_request"],
          ["serve_done"], ["serve_error"], ["serve_close"], ["serve_drain"],
          ["serve_stop"]. *)
  worker : int option;  (** connection id, when one is involved. *)
  round : float;  (** simulated round clock at record time. *)
  cause : string;  (** free-form detail (["cc k=4 hit"], ["12.3ms"]). *)
}

type t

(** [create ?cap ?clock ()] builds an empty journal holding at most [cap]
    events (default [4096]; oldest dropped first). [clock] returns seconds
    (default [Unix.gettimeofday]; inject a counter for deterministic
    tests). *)
val create : ?cap:int -> ?clock:(unit -> float) -> unit -> t

(** [record t ?worker ?round ?cause kind] appends one event ([round]
    defaults to [0.], [cause] to [""]). *)
val record : t -> ?worker:int -> ?round:float -> ?cause:string -> string -> unit

(** [events t] is the retained events, oldest first. *)
val events : t -> event list

(** [length t] is the number of retained events. *)
val length : t -> int

(** [dropped t] counts events evicted by the [cap] bound. *)
val dropped : t -> int

(** {1 Serialization} *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

(** [to_jsonl t] is one JSON object per line, oldest first. *)
val to_jsonl : t -> string

(** [of_jsonl s] parses a journal export back into events. The error names
    the first offending line — except a final line that is not JSON at all,
    which is treated as a torn tail (the writer died mid-append) and
    dropped, provided at least one clean event precedes it. A parseable
    line of the wrong shape still errors, wherever it sits. *)
val of_jsonl : string -> (event list, string) result
