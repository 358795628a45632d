(** The Schur complement graph SCHUR(G, S) (Definition 1).

    SCHUR(G,S) is the weighted graph on S whose Laplacian is the linear-
    algebraic Schur complement of L(G) onto S; a random walk on it is
    distributed exactly like a walk on G with the visits outside S deleted.
    Later phases of the sampler walk on SCHUR(G, S) to skip the vertices
    already visited (Section 3.2).

    Vertices of all S-indexed results are relabeled [0 .. |S|-1] following
    the order of the [s] array; [s.(i)] is the original vertex of index i.

    Two computations:
    - [graph_exact]/[transition_exact]: block elimination on L(G)
      (Section 2.2) — the reference.
    - [transition_via_shortcut]/[approx]: the paper's distributed route
      (Corollary 4): from the shortcut matrix Q form R with
      [R[u,v] = 1/deg_S(u)] for edges u~v into S, take M = QR — M[u,v] is
      the probability that the first S-visit from u is v — and normalize each
      row off the diagonal by [1/(1 - M[u,u])]. *)

(** [graph_exact g ~s] is the weighted Schur complement graph on [|s|]
    relabeled vertices. @raise Invalid_argument if [s] is empty, has
    duplicates, or the eliminated block is singular (e.g. disconnected
    pieces entirely outside S). *)
val graph_exact : Cc_graph.Graph.t -> s:int array -> Cc_graph.Graph.t

(** [transition_exact g ~s] is the |s| x |s| random-walk matrix of
    [graph_exact]. *)
val transition_exact : Cc_graph.Graph.t -> s:int array -> Cc_linalg.Mat.t

(** [transition_via_shortcut g q ~s] applies the Corollary 4 normalization to
    a shortcut matrix [q] (exact or approximate). *)
val transition_via_shortcut :
  Cc_graph.Graph.t -> Cc_linalg.Mat.t -> s:int array -> Cc_linalg.Mat.t

(** [approx ?bits g ~s ~k] is the full paper pipeline: approximate Q by
    k-step powering (Corollary 3), then normalize (Corollary 4). It books
    nothing; the CC sampler charges the pipeline's rounds per phase, under
    labels ["shortcut powering"] and ["schur normalize"]. *)
val approx :
  ?bits:int ->
  Cc_graph.Graph.t ->
  s:int array ->
  k:int ->
  Cc_linalg.Mat.t

(** [members ~n ~s] is the characteristic vector of [s] on [n] vertices. *)
val members : n:int -> s:int array -> bool array
