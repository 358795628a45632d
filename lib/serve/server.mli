(** The ccserve daemon core: a single-threaded accept/serve loop over a
    Unix-domain socket, speaking {!Protocol} lines.

    Clients submit sampling requests; the server prepares (or reuses, via
    {!Plan_cache}) the graph-only factorization and streams tree responses
    back. Concurrency is cooperative: each {!step} makes one pass of
    accept + read + draw-one-tree + flush, drawing at most one tree per
    step and rotating round-robin across connections with active jobs, so
    a large request cannot starve a small one.

    Observability: every request books its Net events into a private flight
    recorder whose chain digest is returned on the done line (equal to a
    one-shot [cctree sample --count] run at the same seed); the metrics
    registry gains [server.requests], [server.cache.{hit,miss,evict}],
    [server.queue_depth], [server.connections] and the [server.request_ms]
    latency histogram. Lifecycle lines go to the [cc.serve] Logs source at
    Info: [listening on], then per connection [accepted], [request] (method,
    k, cache hit or miss), [done in] (ms), [error:] (message) and
    [closed], and [drained after] at the end. Each is formatted inside its
    Logs closure, so a run below Info formats none of them; [ccserve -v]
    prints them.

    The loop never raises for client misbehavior: malformed or torn request
    lines produce a structured error response and the connection survives;
    an oversized line (no newline within 8 MiB) or a broken pipe closes
    only that connection. *)

type config = {
  sock : string;  (** Unix-domain socket path. *)
  cache_cap : int;  (** plan-cache capacity (entries). *)
  max_requests : int option;
      (** stop (drain) after this many answered requests, whether they
          streamed trees or failed with an error — for tests and the CI
          smoke job. *)
}

val default_config : sock:string -> config

type t

(** [create config] binds and listens on [config.sock]. A stale socket file
    (left by a crashed server) is detected by a probe connect and removed;
    a live one raises. It also sets SIGPIPE to ignored for the process, so
    a client hanging up mid-stream surfaces as [EPIPE] on that connection
    only.
    @raise Failure if another server is accepting on the path, or on bind
    errors. *)
val create : config -> t

(** [step t] runs one loop pass and returns [false] once the server has
    fully drained after a stop request (listen socket closed, socket file
    unlinked). It is safe to keep calling after that. *)
val step : t -> bool

(** [run t] loops {!step} until drained. *)
val run : t -> unit

(** [request_stop t] begins a graceful drain: stop accepting connections
    and starting queued requests, finish active jobs, flush, close. Safe
    to call from a signal handler. *)
val request_stop : t -> unit

val sock_path : t -> string

(** [served t] is the number of completed (done or error) requests. *)
val served : t -> int

val cache_stats : t -> int * int * int  (** (hits, misses, evictions) *)
