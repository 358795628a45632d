(** Summary statistics and regression helpers for the benchmark harness.

    The paper's claims are asymptotic; the benches verify them by fitting
    exponents over a ladder of problem sizes ([fit_power]) or checking that a
    polylog-normalized series is flat. *)

(** {1 Edge cases}

    [quantile] rejects an empty input by raising
    [Invalid_argument "Stats.quantile: empty input"] — never by silently
    returning NaN or an infinity — and [fit_power] one of fewer than two
    points. A singleton input is well-defined: its every quantile is its
    sole element. *)

(** [quantile q xs] with [0 <= q <= 1]; linear interpolation between order
    statistics. A singleton's every quantile is its sole element.
    @raise Invalid_argument on an empty input or [q] outside [0, 1]. *)
val quantile : float -> float array -> float

(** [fit_power xs ys] fits [y = c * x^e] by regressing log y on log x and
    returns [(e, c)]. All inputs must be positive. *)
val fit_power : float array -> float array -> float * float

(** [binomial_confidence ~n ~p] is a ~2-sigma half-width for an empirical
    frequency estimated from [n] samples of a Bernoulli(p): used to set
    thresholds on empirical TV tests. *)
val binomial_confidence : n:int -> p:float -> float

(** [tv_noise_floor ~samples ~support] estimates the expected TV distance
    between the empirical distribution of [samples] iid draws from a uniform
    distribution on [support] outcomes and that distribution itself —
    roughly [sqrt (support / (2 pi samples))] per the CLT. Used as the
    baseline in E5. *)
val tv_noise_floor : samples:int -> support:int -> float
