(** The Schur complement graph SCHUR(G, S) (Definition 1).

    SCHUR(G,S) is the weighted graph on S whose Laplacian is the linear-
    algebraic Schur complement of L(G) onto S; a random walk on it is
    distributed exactly like a walk on G with the visits outside S deleted.
    Later phases of the sampler walk on SCHUR(G, S) to skip the vertices
    already visited (Section 3.2).

    Vertices of all S-indexed results are relabeled [0 .. |S|-1] following
    the order of the [s] array; [s.(i)] is the original vertex of index i.

    Three computations:
    - [transition_exact]: block elimination (Section 2.2),
      W_S = W_SS + W_SU·Y with Y the harmonic measures of U = V \ S from
      one subtraction-free elimination ({!Cc_graph.Graph.eliminate},
      DESIGN.md §18).
    - [transition_via_shortcut]/[approx]: the paper's distributed route
      (Corollary 4): from the shortcut matrix Q form R with
      [R[u,v] = 1/deg_S(u)] for edges u~v into S, take M = QR — M[u,v] is
      the probability that the first S-visit from u is v — and normalize each
      row off the diagonal by [1/(1 - M[u,u])].
    - [phase_exact]: a later phase's exact state, the transition and Q's
      rows of S, from the same elimination of U. *)

(** [transition_exact g ~s] is the |s| x |s| random-walk matrix of
    SCHUR(G, S): row i of W_S divided by its off-diagonal sum, or a
    self-loop when s.(i) has no Schur edge. It runs in a [schur.exact]
    trace span. @raise Invalid_argument as {!members}, if [s] is empty, or
    if some component of [g] has no vertex in S. *)
val transition_exact : Cc_graph.Graph.t -> s:int array -> Cc_linalg.Mat.t

(** [transition_via_shortcut g q ~s] applies the Corollary 4 normalization to
    a shortcut matrix [q] (exact or approximate). *)
val transition_via_shortcut :
  Cc_graph.Graph.t -> Cc_linalg.Mat.t -> s:int array -> Cc_linalg.Mat.t

(** The exact state of a sampler phase on S. *)
type phase = {
  q_rows : Cc_linalg.Mat.t;
      (** |s| x n: row i is Shortcut(G, S)'s row of [s.(i)], the
          {!Shortcut.exact} entries that Algorithm 4 reads *)
  transition : Cc_linalg.Mat.t;
      (** |s| x |s|: SCHUR(G, S)'s random-walk matrix, as
          {!transition_exact} gives it up to rounding; not sanitized *)
}

(** [phase_exact g ~s] computes both from one elimination of U = V \ S,
    taken in ascending order: Y = L_UU{^-1}W_US by {!Cc_linalg.Gth.harmonic}.
    The transition is W_S = W_SS + W_SU·Y off the diagonal, each row divided
    by its off-diagonal sum, as in {!transition_exact}; Q's rows of S are
    {!Shortcut.rows_of_s}'s. About |U|³/6 + |U|²|S| multiply-adds for Y.
    Every step adds nonnegative terms, so scaling every weight by one factor
    moves the state only by rounding. It runs in a [shortcut.exact] trace
    span. @raise Invalid_argument as {!members}, or if [s] is empty.
    @raise Failure as {!Cc_linalg.Gth.harmonic} if some component of [g]
    has no vertex in S. *)
val phase_exact : Cc_graph.Graph.t -> s:int array -> phase

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
