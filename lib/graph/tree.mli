(** Spanning trees: representation, validation, counting, enumeration.

    A sampled tree is a set of edges of the host graph. [count] implements the
    Matrix–Tree theorem (determinant of a Laplacian minor), which the paper
    cites as the classical starting point; [index] exhaustively lists all
    spanning trees of small graphs — the ground truth for the TV-distance
    experiments (E5). For weighted graphs the target distribution puts mass on
    a tree proportional to the product of its edge weights (footnote 1), which
    [weighted_distribution] computes. *)

type t
(** An immutable set of edges [(u, v)], [u < v]. *)

(** [of_edges ~n edges] builds a candidate tree on host-vertex-count [n].
    Validation of treeness is separate ([is_spanning_tree]). *)
val of_edges : n:int -> (int * int) list -> t

val edges : t -> (int * int) list

(** [mem t u v] tests membership (order-insensitive). *)
val mem : t -> int -> int -> bool

(** [is_spanning_tree g t] checks [t] has n-1 edges, all present in [g], and
    connects all of [g]'s vertices. *)
val is_spanning_tree : Graph.t -> t -> bool

(** [canonical_key t] is a stable string key identifying the tree. *)
val canonical_key : t -> string

(** {1 Counting and enumeration} *)

(** [count g] is the number of spanning trees (weighted: sum over trees of
    edge-weight products) by the Matrix–Tree theorem. *)
val count : Graph.t -> float

(** [log_count g] is the natural log of [count g] (robust for large
    graphs): the sum of the pivots' logs of one elimination of every vertex
    but n - 1 ({!Graph.eliminate}), each pivot a sum of weights, so scaling
    every weight by c adds exactly (n - 1) ln c up to rounding. It is
    [neg_infinity] exactly when [g] is disconnected, with no tolerance. *)
val log_count : Graph.t -> float

(** [index g] lists all spanning trees by backtracking over edge subsets
    (with connectivity pruning), for small graphs, and pairs the list with a
    lookup table: it returns the trees and a function mapping a tree to its index (for histogramming samples).
    The target distribution over indexes is [weighted_distribution]. *)
val index : ?limit:int -> Graph.t -> t array * (t -> int)

(** [weighted_distribution g trees] is the distribution proportional to tree
    weight — uniform when [g] is unweighted. *)
val weighted_distribution : Graph.t -> t array -> Cc_util.Dist.t
