(** Deterministic multicore execution backend.

    The Congested Clique algorithms in this repository are embarrassingly
    parallel {e across machines}: every round is [n] independent local
    computations (dense row kernels, Schur elimination, per-machine walk
    extension) followed by an [exchange]. [Cc_engine] exploits exactly that
    structure with a fixed-size pool of OCaml 5 domains and chunked
    [parallel_for] / [parallel_map] over machine (or row) indices.

    {b Determinism is a hard contract}, enforced by the replay/CI pipeline:
    for any domain count the observable results are bit-identical to the
    sequential engine. The scheduler guarantees this by construction —

    - every index writes only its own output slot, so results are committed
      in index order regardless of completion order;
    - the loop body receives exactly the same arguments as the sequential
      loop would pass (callers that draw randomness must split one
      {!Cc_util.Prng} stream per index {e up front}, in index order, before
      entering the parallel region — see [Doubling]);
    - an exception raised by any chunk is captured and re-raised in the
      calling domain after the region completes, and when several chunks
      fail the one with the {e smallest} starting index wins, so failure
      behaviour does not depend on scheduling either.

    The pool reports [engine.*] metrics (jobs, tasks/chunks, queue depth,
    per-domain busy time) into {!Cc_obs.Metrics} and opens an [engine.job]
    span per parallel region — recorded only from the submitting domain, so
    observability stays race-free and never perturbs the simulation.

    {!sequential} is the zero-dependency fallback: no domains are spawned,
    [parallel_for] is a plain [for] loop, and it is the default until a
    caller installs something else (or [CC_DOMAINS] says otherwise). *)

type t

(** The no-pool engine: runs everything inline in the calling domain. *)
val sequential : t

(** [create ?domains ()] builds an engine. [domains] counts {e participating}
    domains including the caller (default {!default_domains}); [domains = 1]
    returns {!sequential} without spawning anything, larger values spawn
    [domains - 1] worker domains that live until {!shutdown}.
    @raise Invalid_argument if [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** [domains t] is the number of participating domains ([1] for
    {!sequential}). *)
val domains : t -> int

(** [is_parallel t] is [domains t > 1] and [t] not yet shut down. *)
val is_parallel : t -> bool

(** [shutdown t] joins the worker domains. Idempotent; a shut-down pool
    degrades every subsequent parallel call to the inline sequential path,
    so late callers still compute the same results. No-op on
    {!sequential}. *)
val shutdown : t -> unit

(** {1 Domain-count resolution} *)

(** Name of the environment variable consulted by {!default_domains}
    ("CC_DOMAINS"). *)
val env_var : string

(** [parse_domains s] validates a user-supplied domain count: an integer
    [>= 1]; empty (after trimming) and non-numeric values are errors with a
    one-line message. Shared by {!install_domains}, bench's [--domains]
    and the environment fallback. *)
val parse_domains : string -> (int, string) result

(** [default_domains ()] is the domain count used when none is given
    explicitly: [$CC_DOMAINS] when set and valid, otherwise
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [CC_DOMAINS] is set but not a valid count —
    set-but-empty included (the CLIs reject such values up front with exit
    code 2). *)
val default_domains : unit -> int

(** {1 The process default engine} *)

(** [get ()] is the process-wide default engine. Lazily initialized on first
    use from {!default_domains} — so [CC_DOMAINS=4 dune runtest] exercises
    every instrumented kernel on a 4-domain pool with no code changes. *)
val get : unit -> t

(** [set_default e] installs [e] as the process default. The previous
    default is {e not} shut down — the caller that created it owns its
    lifetime. *)
val set_default : t -> unit

(** [install_domains spec] resolves a binary's [--domains] flag. With
    [Some s], it parses [s] ({!parse_domains}), installs an engine of that
    many domains as the process default ({!set_default}) and shuts it down
    at exit. With [None], it leaves the lazy default in place but validates
    [$CC_DOMAINS] now, so a bad value is a usage error rather than a mid-run
    [Invalid_argument]. The error is one line, prefixed with ["--domains: "]
    or ["CC_DOMAINS: "]. *)
val install_domains : string option -> (unit, string) result

(** [with_engine e f] runs [f] with [e] as the default engine, restoring the
    previous default afterwards (exceptions included). *)
val with_engine : t -> (unit -> 'a) -> 'a

(** {1 Parallel loops} *)

(** [parallel_for ?chunk t ~lo ~hi f] runs [f i] for every [lo <= i < hi].
    On a pool engine, indices are dispatched in contiguous chunks of [chunk]
    (default: enough chunks for ~4 per domain) to the calling domain plus
    the workers; the call returns only when every index has run. Nested
    calls (from inside a running region) and calls on a shut-down pool
    execute inline. [f] must be safe to run concurrently for distinct
    indices; with the sequential engine the call is exactly
    [for i = lo to hi - 1 do f i done]. *)
val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit

(** [parallel_map t n f] is [Array.init n f] computed with {!parallel_for}:
    slot [i] always holds [f i], in index order, whatever the completion
    order was. *)
val parallel_map : t -> int -> (int -> 'a) -> 'a array
