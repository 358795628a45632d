(** The graph-only state of a phased sampler, shared by {!Sampler}
    (Theorem 2) and {!Sequential} (Section 1.2).

    Both samplers run the same phases: phase 1 walks on G from vertex 0, and
    every later phase walks on SCHUR(G, S) for S = {current} ∪ unvisited
    and recovers the G-entry edge of each newly visited vertex through
    Shortcut(G, S) by Algorithm 4. They differ only in how a phase's walk is
    filled. A plan holds what depends on the graph alone: rho, the target
    length and levels resolved against n, the power table of the
    (lazy-mixed) phase-1 transition, and a memo of later phases' state
    keyed by S. Every power table a phase walks on is computed here, by
    {!Cc_clique.Matmul.power_table_pure}, and kept as a
    {!Cc_walks.Topdown.table}: beside its matrices, its mixed level and
    the shared law drawn from there. The CC sampler books it on every
    draw.

    A later phase's state is Q's rows of S and SCHUR(G, S)'s transition.
    In [Exact_solve] mode both come from one elimination of the visited
    block V \ S ({!Cc_schur.Schur.phase_exact}); in [Powering] mode from
    {!Cc_schur.Shortcut.approx} and
    {!Cc_schur.Schur.transition_via_shortcut}.

    The memo is bounded by the words it holds. An entry holds Q's rows of S
    (|S|·n words) and a power table, counted with the transition it squares
    and its shared law as (levels + 2)·|S|² + |S| words (an upper bound: a
    table that stopped squaring aliases its later levels, and one without
    a mixed level has no shared law). An entry is retained only while the
    plan's total stays within 2{^18} words (2 MiB), and none is evicted:
    past the budget a phase recomputes its state, which costs time, never
    correctness. All of it is pure compute, so a hit and a miss yield the
    same walk, the same tree and the same bookings. Plans are not
    thread-safe. *)

(** Re-exported, with its documentation, as {!Sampler.schur_mode}. *)
type schur_mode = Exact_solve | Powering

(** The per-S memo, the settings its entries are computed with, and the
    plan's counters. *)
type memo

type t = private {
  graph : Cc_graph.Graph.t;
  rho : int;  (** distinct vertices per phase: max 2 (ceil (sqrt n)) *)
  target_len : int;
      (** per-phase walk length: next_pow2(n^3 · max 1 (ceil (log2 n))) *)
  table1 : Cc_walks.Topdown.table;
      (** the power table of phase 1's transition, lazy-mixed if asked,
          computed purely *)
  memo : memo;
}

(** [create ?bits ?schur ~lazy_walk g] resolves rho and the target length
    against n and computes the phase-1 state; [bits] rounds every power
    table (Section 3.5), and [schur] (default [Exact_solve]) picks how a
    miss computes a later phase's state. The caller checks that [g] is
    connected. *)
val create :
  ?bits:int ->
  ?schur:schur_mode ->
  lazy_walk:bool ->
  Cc_graph.Graph.t ->
  t

(** [schur_k t] is the powering depth k, the power of two at least 16·n³. *)
val schur_k : t -> int

type stats = {
  draws : int;
  hits : int;  (** later phases the memo served *)
  misses : int;  (** later phases computed, retained or not *)
  words : int;  (** words the retained entries hold *)
}

val stats : t -> stats
val count_draw : t -> unit

(** The state of one later phase. *)
type phase = {
  s : int array;  (** S = {current} ∪ unvisited, ascending *)
  start : int;  (** the index of the walk's current vertex in [s] *)
  ws : float array;
      (** w_S(v) of every vertex v ({!Cc_schur.Shortcut.s_weight}), the
          denominators of Algorithm 4's weights; computed by every call of
          {!phase}, hit or miss, and not held by the memo *)
  q_rows : Cc_linalg.Mat.t;
      (** |S| x n: row i is Shortcut(G, S)'s row of [s.(i)] *)
  table : Cc_walks.Topdown.table Lazy.t;
      (** the power table of SCHUR(G, S)'s transition, lazy-mixed if the
          plan is, by {!Cc_clique.Matmul.power_table_pure} with the plan's
          bits and levels; forced by the first walk on S, and never by a
          two-vertex phase, which is one forced step *)
}

(** [phase t ~visited ~current] is the state of the phase that starts at
    [current]: Q's rows of S and the power table through the memo, and
    w_S once per call, in O(n + m), for every {!first_visit} of the phase.
    Both samplers come here for every later phase, so this is where a hit
    or a miss is counted: in {!stats} and in the metrics registry as
    [sampler.plan.memo_hit] or [memo_miss]. *)
val phase : t -> visited:bool array -> current:int -> phase

(** [first_visit t ph prng ~prev v] is Algorithm 4 for a vertex [v] that the
    walk first reaches from [prev]: it draws v's G-neighbour u with
    probability proportional to Q[prev, u]·w(u, v)/w_S(u), read from prev's
    row of [ph.q_rows] and w_S(u) from [ph.ws], and returns u with the
    weights it drew from.
    @raise Invalid_argument if [prev] is not in S. *)
val first_visit :
  t -> phase -> Cc_util.Prng.t -> prev:int -> int -> int * (int * float) array
