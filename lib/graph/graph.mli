(** Simple, undirected, weighted graphs.

    The paper's input is an unweighted simple graph, but every later phase
    works on the Schur complement — an edge-weighted graph — so the whole
    stack is written for positive edge weights. Random walks transition along
    incident edges with probability proportional to edge weight (footnote 2 of
    the paper). Vertices are [0 .. n-1]. *)

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph on [n] vertices from weighted edges
    [(u, v, w)]. @raise Invalid_argument on self-loops, duplicate edges,
    nonpositive weights, or out-of-range endpoints. *)
val of_edges : n:int -> (int * int * float) list -> t

(** [of_unweighted_edges ~n edges] gives every edge weight 1. *)
val of_unweighted_edges : n:int -> (int * int) list -> t

(** {1 Queries} *)

val n : t -> int
val num_edges : t -> int

(** [edges g] lists each edge once as [(u, v, w)] with [u < v]. *)
val edges : t -> (int * int * float) list

(** [neighbors g u] is the array of [(v, w)] incident to [u]. *)
val neighbors : t -> int -> (int * float) array

(** [weighted_degree g u] is the total incident weight. *)
val weighted_degree : t -> int -> float

val has_edge : t -> int -> int -> bool

(** [edge_weight g u v] is the weight, or 0 if absent. *)
val edge_weight : t -> int -> int -> float

(** [is_connected g] *)
val is_connected : t -> bool

(** [total_weight g] is the sum of edge weights. *)
val total_weight : t -> float

(** {1 Derived matrices} *)

(** [transition_matrix g] is the random-walk matrix P with
    [P(u,v) = w(u,v) / weighted_degree u]. Rows of isolated vertices are
    self-loops. *)
val transition_matrix : t -> Cc_linalg.Mat.t

(** {1 Electrical quantities} *)

(** [eliminate g ~keep] fills the rows of U = V \ [keep] from adjacency,
    in weight units, and eliminates U by {!Cc_linalg.Gth.factor}: U is
    taken in ascending order, and the kept columns follow [keep]'s order.
    It returns U's vertices in that order with the factor. Every exact
    Laplacian oracle of the library reads this one factorization.
    @raise Invalid_argument if [keep] holds a vertex out of range or twice. *)
val eliminate : t -> keep:int array -> int array * Cc_linalg.Gth.t

(** [grounded_inverse g ~ground] is the n x n matrix X that holds L_UU{^-1}
    for U = V \ {[ground]}, and zeros in row and column [ground]: one
    elimination and {!Cc_linalg.Gth.inverse}. For b = e_u - e_v,
    b{^T} X b is R_eff(u, v), and X's column difference y = X b gives the
    potentials of a unit current from u to v with [ground] at 0.
    @raise Invalid_argument if [ground] is not a vertex.
    @raise Failure ["Gth: some component of the graph has no kept vertex"]
    if [g] is disconnected. *)
val grounded_inverse : t -> ground:int -> Cc_linalg.Mat.t

(** [edge_resistances g] is R_eff(u, v) for every edge [(u, v, _)], in
    {!edges} order, read from one {!grounded_inverse} at vertex n - 1 as
    y_u - y_v, y = X (e_u - e_v). It agrees with the per-pair resistance
    grounded at v (test/shared's [effective_resistance]) up to rounding:
    X_uu + X_vv - X_uv - X_vu cancels where the per-pair solve does not,
    and test_graph bounds the leverage gap w·|ΔR| by 1e-8 on weights from
    1e-3 to 1e3.
    @raise Failure as {!grounded_inverse} does if [g] is disconnected. *)
val edge_resistances : t -> float array

(** {1 Identity} *)

(** [fingerprint g] is a canonical digest of the graph ("fnv64:<16 hex>"):
    {!Cc_obs.Recorder.fnv64_hex} of [to_string g], the vertex count and
    the sorted edge list with weights at full precision. Edge-order
    permutations of the same graph fingerprint identically; any weight or
    topology change does not. Keys the ccserve plan cache. *)
val fingerprint : t -> string

(** {1 Serialization} *)

(** [to_string g] / [of_string s]: a line-oriented format
    ("n <n>" then "e <u> <v> <w>" lines) for the CLI. *)
val to_string : t -> string

val of_string : string -> t
