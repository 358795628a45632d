(** Bounded LRU cache for prepared sampling plans.

    ccserve keys plans by the canonical graph digest
    ({!Cc_graph.Graph.fingerprint}) plus the sampling method, so repeated
    requests for the same graph and method reuse the graph-only work of
    {!Methods.prepare} and pay only the draws. The cache is a plain
    polymorphic map with last-used ticks — capacity is small (plans hold
    O(n^2 log) floats), so O(cap) eviction scans are irrelevant next to a
    single matrix multiply.

    Every lookup updates the metrics registry: [server.cache.hit],
    [server.cache.miss], [server.cache.evict]. *)

type 'a t

(** [create ~cap] builds an empty cache holding at most [cap] entries.
    @raise Invalid_argument if [cap < 1]. *)
val create : cap:int -> 'a t

(** [find_or_add t key ~make] returns [(value, hit)]: the cached value with
    [hit = true], or [make ()] — inserted, evicting the least-recently-used
    entry when full — with [hit = false]. [make] is not called on a hit. *)
val find_or_add : 'a t -> string -> make:(unit -> 'a) -> 'a * bool

(** [stats t] is cumulative [(hits, misses, evictions)]. *)
val stats : 'a t -> int * int * int
