(** Dense row-major matrices over [float].

    This is the numeric substrate for transition matrices [P], their powers
    [P^2, P^4, ..., P^l] (Algorithm 1), Laplacians, and Schur complements.
    Matrices are mutable; all derived operations allocate fresh results unless
    the name says otherwise. *)

type t

(** {1 Construction and access} *)

val create : rows:int -> cols:int -> float -> t
val init : rows:int -> cols:int -> (int -> int -> float) -> t
val rows : t -> int
val cols : t -> int

(** [get m i j] and [set m i j v] check their indices. Outside [lib/linalg]
    each call also boxes its float (2 words; without flambda no annotation
    inlines them across modules), so hot loops must not go through them:
    {!two_step_into} fills a whole Formula 1 law in one call, and
    {!two_step} reads one of its weights with one box instead of three. *)
val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

(** [two_step m p j q] is [m[p,j] *. m[j,q]], the weight of the two-step
    path p -> j -> q: Formula 1's weight of midpoint [j] between [p] and
    [q] when [m] is P^(d/2).
    @raise Invalid_argument if [m] is not square or an index is out of
    bounds. *)
val two_step : t -> int -> int -> int -> float

(** [two_step_into m ~p ~q buf] sets [buf.(j)] to [two_step m p j q] for
    every [j], with the same product's bits, and allocates nothing.
    @raise Invalid_argument if [m] is not square, [p] or [q] is out of
    bounds, or [buf] is not [rows m] long. *)
val two_step_into : t -> p:int -> q:int -> float array -> unit

(** [col_diff_into m ~u ~v y] sets [y.(i)] to [m[i,u] -. m[i,v]] for every
    [i]: [m (e_u - e_v)], with no float boxed.
    @raise Invalid_argument if [m] is not square, [u] or [v] is out of
    bounds, or [y] is not [rows m] long. *)
val col_diff_into : t -> u:int -> v:int -> float array -> unit

(** [add_outer_in_place m s y] adds [s y y^T] to [m] in place: entry
    [(i, j)] becomes [m[i,j] +. ((s *. y.(i)) *. y.(j))].
    @raise Invalid_argument if [m] is not square or [y] is not [rows m]
    long. *)
val add_outer_in_place : t -> float -> float array -> unit

(** [data m] is [m]'s row-major storage itself, not a copy: entry [(i, j)]
    is at [i * cols m + j]. For the kernels of [lib/linalg] only. *)
val data : t -> float array

(** [row m i] is a fresh copy of row [i]. *)
val row : t -> int -> float array

(** {1 Arithmetic} *)


(** [mul a b] is the matrix product, O(n^3). Every sample and recorder
    digest depends on its exact bits, so each entry's value is fixed:
    entry [(i, j)] starts at [0.0] and adds [a[i,k] *. b[k,j]] for each
    [k] with [a[i,k] <> 0.0] (so [-0.0] is skipped too), in ascending [k],
    with a separate multiply and add per term (no fused multiply-add). It
    computes them in tiles of four such [k] by eight columns, with the
    eight entries' sums in registers, which changes no term and no order
    (DESIGN.md §15). *)
val mul : t -> t -> t

(** [mul_vec m v] is [m v]. *)
val mul_vec : t -> float array -> float array

(** [vec_mul v m] is [v^T m] (row vector times matrix). *)
val vec_mul : float array -> t -> float array

(** [power m k] is [m^k] by repeated squaring, [k >= 0]. *)
val power : t -> int -> t

(** [half_lazy m] is [(I + m) / 2] — the lazy version of a transition
    matrix, which kills the periodicity of bipartite chains. Entry
    [(i, j)] is [(0.5 *. m[i,j]) +. 0.5] on the diagonal and
    [(0.5 *. m[i,j]) +. 0.0] off it. *)
val half_lazy : t -> t

(** [squarings ~exact ~square m ~levels] is the table
    [[| m; square m; square (square m); ... |]] of length [levels + 1], the
    repeated squaring behind every power table, and its mixed level. It
    stops calling [square] after the first level i >= 1 that either has the
    bits of level i - 1, entry for entry, or, when [exact] is false and [m]
    is row-stochastic (every entry >= 0, every row sum within 1e-12 of 1),
    has every row within 1e-12 of row 0 in l1. Every later level is then
    level i itself, not a copy, so the skipped levels are those physically
    equal to their predecessor. [square] must be a pure function of its
    argument.

    The first stop is exact: every later square would repeat the bits. The
    second leaves every filled row within 2e-12 in l1 of the exact power's
    row, up to level i's own rounding, because each row of a later power of
    a stochastic matrix is a convex combination of level i's rows
    (DESIGN.md §17). Pass [exact:true] where the rounded values themselves
    matter (Lemma 3's truncated powering).

    The mixed level is [Some i] when the table stopped at level i on the
    second test and every entry of level i is also within a relative
    delta_max = 1e-10 of row 0's entry in its column
    (|T[r,j] - T[0,j]| <= 1e-10·T[0,j], so a zero in row 0 admits only
    zeros below it). Then every Formula 1 law read from level i is within
    1e-10 in total variation of row 0's law (DESIGN.md §17). It is [None]
    for a table that stopped on an exact repeat, that never stopped, or
    that [exact] keeps exact. *)
val squarings :
  exact:bool -> square:(t -> t) -> t -> levels:int -> t array * int option

(** [power_table m ~max_exp] returns [[m; m^2; m^4; ...]] up to the largest
    power of two <= 2^max_exp — the table built by the Initialization Step —
    by {!squarings} with [mul t t]: a table whose rows have agreed stops
    squaring, and its later levels alias the level where they agreed. *)
val power_table : t -> max_exp:int -> t array

(** {1 Submatrices} *)

(** [submatrix m ~row_idx ~col_idx] extracts the (possibly permuted)
    submatrix with the given row and column index arrays.
    @raise Invalid_argument if an index is out of range. *)
val submatrix : t -> row_idx:int array -> col_idx:int array -> t

(** {1 Predicates and norms} *)

(** [max_abs_diff a b] is the entrywise l-infinity distance. *)
val max_abs_diff : t -> t -> float

(** [max_subtractive_error ~exact ~approx] is the largest amount by which
    [approx] falls below [exact]; negative entries of [exact - approx] do not
    contribute (Lemma 3 speaks of one-sided, subtractive error). *)
val max_subtractive_error : exact:t -> approx:t -> float

(** [normalize_rows m] divides each row by its sum; rows summing to zero are
    left untouched. *)
val normalize_rows : t -> t

(** [sanitize_stochastic m] clamps negative entries (numeric dust) to 0, then
    normalizes the rows as {!normalize_rows} does: the cleanup that turns a
    computed transition matrix into a proper stochastic one. *)
val sanitize_stochastic : t -> t

val pp : Format.formatter -> t -> unit
