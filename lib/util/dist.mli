(** Finite discrete probability distributions.

    Every sampling step of the paper's algorithms — midpoint selection
    (Formula 1), first-visit-edge resampling (Algorithm 4), walk transitions —
    draws from an explicitly represented, usually unnormalized, weight vector.
    This module provides normalization, exact inverse-CDF sampling, and the
    distance measures used to validate output distributions (total
    variation, KL, chi-square). *)

type t
(** A normalized distribution over [0 .. support_size - 1]. *)

(** {1 Construction} *)

(** [of_weights w] normalizes nonnegative weights into a distribution.
    @raise Invalid_argument if any weight is negative, not finite, or if all
    weights are zero. *)
val of_weights : float array -> t

(** [uniform n] is the uniform distribution on [0..n-1]. *)
val uniform : int -> t

(** [prob d i] is the probability of outcome [i]. *)
val prob : t -> int -> float

(** {1 Sampling} *)

(** [cdf_in_place w] overwrites the weights [w] with their cumulative law,
    the array [of_weights w] samples from, bit for bit: the same checks,
    total the left fold of [w], entry i the running sum of w.(j) /. total
    over j <= i in index order, and the last entry exactly [1.0]. A caller
    that refills one buffer per law allocates nothing.
    @raise Invalid_argument as [of_weights] does. *)
val cdf_in_place : float array -> unit

(** [search cdf u] is the smallest index whose entry of the cumulative law
    [cdf] exceeds [u]: at [u = Prng.float prng 1.0] it draws from the law
    [cdf] holds. *)
val search : float array -> float -> int

(** [sample_weights w prng] draws directly from unnormalized weights without
    building a [t]; linear scan, for one-shot draws. *)
val sample_weights : float array -> Prng.t -> int

(** {1 Distances and statistics} *)

(** [tv a b] is the total variation distance
    [1/2 * sum_i |a_i - b_i|]; both must share a support size. *)
val tv : t -> t -> float

(** [tv_counts ~counts d] is the TV distance between the empirical
    distribution of [counts] and [d]. *)
val tv_counts : counts:int array -> t -> float

(** [kl a b] is the Kullback–Leibler divergence D(a || b).

    Zero-mass contract (the two degenerate directions are asymmetric, and
    both are defined — neither raises):
    - if [a] has mass on an outcome where [b] has none, the result is exactly
      [infinity] (never NaN): [a] is not absolutely continuous w.r.t. [b] and
      no finite value is faithful;
    - outcomes where [b] has mass but [a] has none contribute [0.0]
      (the [0 * log 0 = 0] convention), so [kl] stays finite in that
      direction.

    @raise Invalid_argument only when the support sizes differ. *)
val kl : t -> t -> float

(** [chi_square_stat ~counts d] is the chi-square goodness-of-fit statistic of
    observed [counts] against expected [d]; outcomes with zero expected mass
    must have zero counts. *)
val chi_square_stat : counts:int array -> t -> float

(** [empirical counts] turns a histogram into a distribution. *)
val empirical : int array -> t
