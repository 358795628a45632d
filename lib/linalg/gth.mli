(** Subtraction-free elimination of a vertex set from a weighted graph, the
    one factorization behind every exact Laplacian oracle (Grassmann, Taksar
    and Heyman 1985; DESIGN.md §18).

    The input is the rows of the eliminated set U in weight units: a
    [nu] x ([nu] + [nk]) row-major block whose column j < [nu] is U's vertex
    j and whose column [nu] + c is the kept vertex c, holding the edge
    weight w(u, x) (0 for a non-edge). Only the entries right of the
    diagonal are read. U's vertices are eliminated in ascending order. The
    pivot d_k of vertex k is the sum of its remaining weights, to the U
    vertices after it and to the kept ones, and each remaining weight
    w(i, j) of a later row i grows by w(k, i)·w(k, j)/d_k. So every pivot is
    a sum of weights and every update adds a nonnegative product: nothing
    cancels, and scaling every weight by c scales every pivot by c. A pivot
    is exactly 0 if and only if some connected component lies entirely
    inside U, so no tolerance is needed. The pivots' product is det L_UU,
    the minor of the graph's Laplacian on U, and L_UU = (I - N){^T} D (I - N)
    with D the pivots and N[k, j] = w(k, j)/d_k at k's elimination.

    Every result below reads that factor by additions of nonnegative terms
    and divisions by pivots. The kept-by-kept weights are never touched:
    about |U|³/6 + |U|²·|keep|/2 multiply-adds. *)

type t

(** [factor a ~nu ~nk] eliminates U from the block [a], which it overwrites
    and keeps. @raise Invalid_argument if [a] does not hold
    [nu] x ([nu] + [nk]) entries. *)
val factor : float array -> nu:int -> nk:int -> t

(** [log_det f] is log det L_UU, the sum of the pivots' logs in ascending
    order; [neg_infinity] if a pivot is 0. With one kept vertex it is the
    log of the weighted spanning-tree count (Matrix–Tree). *)
val log_det : t -> float

(** [harmonic f] is Y = L_UU{^-1} W_UK, [nu] x [nk] and row-major: Y[u, c]
    is the probability that a walk from u first enters the kept set at kept
    vertex c. @raise Failure ["Gth: some component of the graph has no kept
    vertex"] if a pivot is 0. *)
val harmonic : t -> float array

(** [solve f b] is L_UU{^-1} b, free of subtraction for [b] >= 0.
    @raise Invalid_argument if [b] does not have [nu] entries.
    @raise Failure as {!harmonic}. *)
val solve : t -> float array -> float array

(** [inverse f] is L_UU{^-1}, [nu] x [nu], row-major and symmetric bit for
    bit. @raise Failure as {!harmonic}. *)
val inverse : t -> float array
