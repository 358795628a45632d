(** Midpoint-placement instances and a class-compressed exact sampler.

    In the Midpoint Placement step (Section 3.1.3), the leader machine M
    receives only a {e multiset} of midpoints and must place them into walk
    positions identified by (start,end) pairs, sampling a perfect matching
    with probability proportional to the product of edge weights
    [P^(d/2)[p,v] * P^(d/2)[v,q]].

    The crucial structure: the weight of edge (instance, position) depends
    only on the instance's {e identity} v and the position's {e pair} (p,q).
    Instances with equal identity are exchangeable, as are positions with
    equal pair, so a matching is determined (up to a uniform relabeling) by
    its {e contingency table} N(v, t) = how many class-v instances land on
    class-t positions, and

      P(N)  proportional to  prod_{v,t} a(v,t)^N(v,t) / N(v,t)!

    subject to the row/column margins. [sample_exact] draws N by dynamic
    programming over row classes (state = remaining column capacities) and
    then assigns labeled instances/positions uniformly within classes. This
    is {e exact} and handles instances with thousands of midpoints as long as
    the class structure is small; when the DP state space exceeds the cap the
    caller should fall back to the generic samplers in {!Sampler} on
    {!dense}.

    {b Storage.} An instance is kept as its contingency table: one weight per
    (distinct identity, position class), so [build] calls [weight] once per
    such pair rather than once per (instance, position), and the exact path
    never forms the k×k matrix. *)

type t

(** [build ~identities ~positions ~weight] constructs the instance with
    [identities.(i)] the identity of instance i and [positions.(j)] the
    (start,end) pair of position j. [weight ~v ~p ~q] must depend only on its
    arguments; it is evaluated once per distinct identity and distinct pair.
    @raise Invalid_argument if the instance is empty, the lengths differ, or
    a weight is negative or not finite (zeros mark unreachable
    identity/position combinations). *)
val build :
  identities:int array ->
  positions:(int * int) array ->
  weight:(v:int -> p:int -> q:int -> float) ->
  t

(** [dp_states t] is the size of the DP state space, the product over
    position classes of (class size + 1), saturated at [max_int]. It is the
    exact cost predictor of [sample_exact]: one pass over that many states,
    each visiting every position class. *)
val dp_states : t -> int

(** [dense t] materializes the k×k matrix [w.(instance).(position)] for the
    generic samplers of {!Sampler}; each cell is the contingency table's
    weight for the instance's identity and the position's pair. *)
val dense : t -> float array array

(** [sample_exact prng t] draws a matching sigma (position j -> instance
    sigma.(j)) exactly proportional to weight, via the contingency-table DP.
    It holds [dp_states t] floats while it runs (8 MB at the default bound).
    @raise Invalid_argument iff [dp_states t] exceeds [max_states]
    (default 1_000_000), before drawing anything.
    @raise Failure if no matching has positive weight. *)
val sample_exact : ?max_states:int -> Cc_util.Prng.t -> t -> int array
