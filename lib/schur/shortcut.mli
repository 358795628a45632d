(** The shortcut graph SHORTCUT(G, S) (Definition 2).

    For a walk on G started at u, let j be the first time (> 0) the walk is
    at a vertex of S; the shortcut transition matrix Q has
    [Q[u,v] = Pr(x_{j-1} = v)] — the distribution of the vertex visited
    {e just before} the first S-visit. It is the bridge between a walk on the
    Schur complement and first-visit edges in G (Algorithm 4).

    Two computations are provided, both n x n over the original vertex set:

    - [exact]: the absorbing chain of Corollary 3 solved exactly. In the
      order (U, S) with U = V \ S, its rows of U are
      Q_UU = L_UU{^-1}·diag(w_S) and Q_US = 0, and its rows of S are
      {!rows_of_s}'s, from one elimination of U ({!Cc_graph.Graph.eliminate}).
    - [approx]: the paper's route — k-th power of the 2n x 2n chain R of
      Corollary 3 by repeated squaring, optionally truncating entries to
      [bits] fractional bits after every squaring. Subtractive error decays
      as the chain absorbs (bench E7). Both are local computation: the CC
      sampler books the powering's rounds itself, the same in either mode.

    The paper states the first-visit machinery for unweighted G; the
    implementation generalizes the [1/deg_S] factors to
    [w(u,v)/w_S(u)] so footnote 1's bounded-integer-weight extension works
    unchanged. *)

(** [exact g ~in_s] returns Q; [in_s] is the characteristic vector of S.
    It runs in a [shortcut.exact] trace span.
    @raise Invalid_argument if S is empty.
    @raise Failure as {!Cc_linalg.Gth.harmonic} if some component of [g]
    avoids S. *)
val exact : Cc_graph.Graph.t -> in_s:bool array -> Cc_linalg.Mat.t

(** [rows_of_s g ~s ~ws ~u_of y] is Q's rows of S, |s| x n, row i for
    v = [s.(i)]: Q[v, v] = w_S(v)/d(v), 0 on the rest of S, and
    Q[s.(i), u] = Y[u, i]·w_S(u)/d(s.(i)) for u in U; an isolated [s.(i)]
    has Q[s.(i), s.(i)] = 1. [u_of] lists U = V \ S in ascending order and
    [y] is {!Cc_linalg.Gth.harmonic}'s Y for it, as
    [Graph.eliminate g ~keep:s] returns them; [ws.(v)] is {!s_weight} of
    every vertex. Both {!exact} and [Schur.phase_exact] read their rows of
    S here. *)
val rows_of_s :
  Cc_graph.Graph.t ->
  s:int array ->
  ws:float array ->
  u_of:int array ->
  float array ->
  Cc_linalg.Mat.t

(** [approx ?bits g ~in_s ~k] approximates Q by the k-th power of the
    auxiliary chain ([k] a power of two), squaring log2 k times through
    {!Cc_linalg.Mat.squarings}: the squaring stops at a power that repeats
    the previous one bit for bit (the chain's absorbing rows never agree, so
    the rows test does not fire here). *)
val approx :
  ?bits:int ->
  Cc_graph.Graph.t ->
  in_s:bool array ->
  k:int ->
  Cc_linalg.Mat.t

(** [s_weight g ~in_s u] is the total edge weight from [u] into S
    (= deg_S(u) on unweighted graphs). *)
val s_weight : Cc_graph.Graph.t -> in_s:bool array -> int -> float

(** [first_visit_weights g q ~ws ~row ~target] is the unnormalized
    Algorithm 4 distribution over the first-visit edge (u, target) of a walk
    whose previous vertex is prev, where row [row] of [q] is Q[prev, ·]: the
    full Q with [row] = prev, or the rows of S that a sampler phase keeps
    (Schur.phase). [ws.(u)] is {!s_weight}[ g ~in_s u] for every vertex u,
    computed once per S by the caller (Plan.phase). For every neighbor u of
    [target] the weight is [Q[prev, u] * w(u,target) / w_S(u)], which
    reduces to the paper's [Q[prev, u] / deg_S(u)] on unweighted graphs, and
    0 where w_S(u) = 0; returned as [(u, weight)] pairs.
    @raise Invalid_argument if [ws] does not have one entry per vertex. *)
val first_visit_weights :
  Cc_graph.Graph.t ->
  Cc_linalg.Mat.t ->
  ws:float array ->
  row:int ->
  target:int ->
  (int * float) array
