(** Dense row-major matrices over [float].

    This is the numeric substrate for transition matrices [P], their powers
    [P^2, P^4, ..., P^l] (Algorithm 1), Laplacians, and Schur complements.
    Matrices are mutable; all derived operations allocate fresh results unless
    the name says otherwise. *)

type t

(** {1 Construction and access} *)

val create : rows:int -> cols:int -> float -> t
val init : rows:int -> cols:int -> (int -> int -> float) -> t
val identity : int -> t
val copy : t -> t
val rows : t -> int
val cols : t -> int

(** [get m i j] and [set m i j v] check their indices. Outside [lib/linalg]
    each call also boxes its float (2 words; without flambda no annotation
    inlines them across modules), so hot loops must not go through them. *)
val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

(** [data m] is [m]'s row-major storage itself, not a copy: entry [(i, j)]
    is at [i * cols m + j]. For the kernels of [lib/linalg] only. *)
val data : t -> float array

(** [of_arrays a] builds a matrix from a rectangular array of rows. *)
val of_arrays : float array array -> t

val to_arrays : t -> float array array

(** [row m i] is a fresh copy of row [i]. *)
val row : t -> int -> float array

(** [col m j] is a fresh copy of column [j]. *)
val col : t -> int -> float array

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val transpose : t -> t

(** [mul a b] is the matrix product, O(n^3). Every sample and recorder
    digest depends on its exact bits, so each entry's value is fixed:
    entry [(i, j)] starts at [0.0] and adds [a[i,k] *. b[k,j]] for each
    [k] with [a[i,k] <> 0.0] (so [-0.0] is skipped too), in ascending [k],
    with a separate multiply and add per term (no fused multiply-add). *)
val mul : t -> t -> t

(** [mul_vec m v] is [m v]. *)
val mul_vec : t -> float array -> float array

(** [vec_mul v m] is [v^T m] (row vector times matrix). *)
val vec_mul : float array -> t -> float array

(** [power m k] is [m^k] by repeated squaring, [k >= 0]. *)
val power : t -> int -> t

(** [half_lazy m] is [(I + m) / 2] — the lazy version of a transition
    matrix, which kills the periodicity of bipartite chains. *)
val half_lazy : t -> t

(** [power_table m ~max_exp] returns [[m; m^2; m^4; ...]] up to the largest
    power of two <= 2^max_exp — the table built by the Initialization Step. *)
val power_table : t -> max_exp:int -> t array

(** {1 Submatrices} *)

(** [submatrix m ~row_idx ~col_idx] extracts the (possibly permuted)
    submatrix with the given row and column index arrays.
    @raise Invalid_argument if an index is out of range. *)
val submatrix : t -> row_idx:int array -> col_idx:int array -> t

(** {1 Predicates and norms} *)

val equal : ?tol:float -> t -> t -> bool

(** [max_abs_diff a b] is the entrywise l-infinity distance. *)
val max_abs_diff : t -> t -> float

(** [max_subtractive_error ~exact ~approx] is the largest amount by which
    [approx] falls below [exact]; negative entries of [exact - approx] do not
    contribute (Lemma 3 speaks of one-sided, subtractive error). *)
val max_subtractive_error : exact:t -> approx:t -> float

(** [row_sums m] is the vector of row sums. *)
val row_sums : t -> float array

(** [is_row_stochastic ?tol m] checks nonnegativity and unit row sums. *)
val is_row_stochastic : ?tol:float -> t -> bool

(** [is_symmetric ?tol m] *)
val is_symmetric : ?tol:float -> t -> bool

(** [normalize_rows m] divides each row by its sum; rows summing to zero are
    left untouched. *)
val normalize_rows : t -> t

(** [sanitize_stochastic m] clamps negative entries (numeric dust) to 0, then
    normalizes the rows as {!normalize_rows} does: the cleanup that turns a
    computed transition matrix into a proper stochastic one. *)
val sanitize_stochastic : t -> t

val pp : Format.formatter -> t -> unit
