(** Midpoint-placement instances and their exact sampler.

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

    subject to the row/column margins. [sample_exact] draws N by one dynamic
    program over either margin of the table (see {!margin}), then assigns
    labeled instances and positions uniformly within classes. This is
    {e exact}, and handles instances with thousands of midpoints as long as
    one margin has few classes. Past that, the phase walk keeps the
    magical order.

    {b Storage.} An instance is kept as its contingency table: one weight per
    (distinct identity, position class), so [build] calls [weight] once per
    such pair rather than once per (instance, position), and no k×k matrix
    is ever formed. *)

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

(** [size t] is k, the number of instances (and of positions). *)
val size : t -> int

(** [weight t i j] is the weight of instance [i] at position [j], as the
    contingency table holds it. *)
val weight : t -> int -> int -> float

(** The margin the DP runs over. Both compute the same permanent:
    z_classes · ∏ (class size)! = z_rows · ∏ (multiplicity)!.
    - [Classes]: the instances, in identity order, each choose a position
      class. One state per vector of remaining class capacities,
      ∏ (class size + 1) states, each trying every class.
    - [Rows], the transpose: the positions, in class order, each choose a
      distinct identity. ∏ (multiplicity + 1) states, each trying every
      distinct identity. *)
type margin = Classes | Rows

(** [dp_states ?margin t] is the size of the DP state space on [margin]
    (default [Classes]), saturated at [max_int]. The DP holds that many
    floats while it runs. *)
val dp_states : ?margin:margin -> t -> int

(** [cheaper ~max_states t] is the margin the walk places [t] on: of the
    margins with at most [max_states] states, the one with fewer states ×
    choices per state (the work of one DP pass), [Classes] on a tie; [None]
    if neither margin fits. *)
val cheaper : max_states:int -> t -> margin option

(** [log_z ?margin t] is the log of the DP's total on [margin]: the summed
    weight of every sequence of choices that fills the margin. Adding
    Σ log (class size!) on [Classes], or Σ log (multiplicity!) on [Rows],
    gives the log permanent of the instance.
    @raise Invalid_argument if [dp_states ?margin t] exceeds 1,000,000. *)
val log_z : ?margin:margin -> t -> float

(** [sample_exact ?max_states ?margin prng t] draws a matching sigma
    (position j -> instance sigma.(j)) exactly proportional to weight, by the
    DP on [margin] (default [Classes]). Both margins count under the
    [placement.exact_calls] metric and the [placement.exact] span.
    @raise Invalid_argument iff [dp_states ?margin t] exceeds [max_states]
    (default 1_000_000), before drawing anything.
    @raise Failure if no matching has positive weight. *)
val sample_exact :
  ?max_states:int -> ?margin:margin -> Cc_util.Prng.t -> t -> int array
