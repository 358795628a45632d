(** The Schur complement graph SCHUR(G, S) (Definition 1).

    SCHUR(G,S) is the weighted graph on S whose Laplacian is the linear-
    algebraic Schur complement of L(G) onto S; a random walk on it is
    distributed exactly like a walk on G with the visits outside S deleted.
    Later phases of the sampler walk on SCHUR(G, S) to skip the vertices
    already visited (Section 3.2).

    Vertices of all S-indexed results are relabeled [0 .. |S|-1] following
    the order of the [s] array; [s.(i)] is the original vertex of index i.

    Three computations:
    - [graph_exact]/[transition_exact]: block elimination on L(G)
      (Section 2.2) — the reference.
    - [transition_via_shortcut]/[approx]: the paper's distributed route
      (Corollary 4): from the shortcut matrix Q form R with
      [R[u,v] = 1/deg_S(u)] for edges u~v into S, take M = QR — M[u,v] is
      the probability that the first S-visit from u is v — and normalize each
      row off the diagonal by [1/(1 - M[u,u])].
    - [phase_exact]: a later phase's exact state, the transition and Q's
      rows of S, from one solve on the visited block U = V \ S (DESIGN.md
      §18). *)

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

(** The exact state of a sampler phase on S. *)
type phase = {
  q_rows : Cc_linalg.Mat.t;
      (** |s| x n: row i is Shortcut(G, S)'s row of [s.(i)], the
          {!Shortcut.exact} entries that Algorithm 4 reads *)
  transition : Cc_linalg.Mat.t;
      (** |s| x |s|: SCHUR(G, S)'s random-walk matrix, as
          {!transition_exact} gives it up to rounding; not sanitized *)
}

(** [phase_exact g ~s] computes both from one solve on U = V \ S, taken in
    ascending order, with P = D{^-1}A the non-lazy transition:
    Y = (I - P_UU){^-1}P_US by {!Cc_linalg.Solve.solve_mat}. The transition
    is M = P_SS + P_SU·Y off the diagonal, each row divided by its
    off-diagonal sum. Q[s.(i), v] is w_S(v)/d(v) if v = s.(i) and exactly 0
    for the other v in S, and Q[s.(i), u] = Y[u, i]·w_S(u)/d(s.(i)) for u in
    U. About 2|U|³/3 + 2|U|²|S| + 2|U||S|² flops, against about 8n³/3 for
    {!Shortcut.exact}. It runs in a [shortcut.exact] trace span.
    @raise Invalid_argument as {!members}, or if [s] is empty.
    @raise Failure if I - P_UU is singular: some vertex of U reaches no
    vertex of S, as when G is disconnected. *)
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
