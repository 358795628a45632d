(** The sublinear-round spanning-tree sampler (Theorem 2, Section 3).

    The algorithm implements Aldous–Broder on the Congested Clique in
    O(sqrt n) phases. Each phase extends the underlying random walk until
    rho = ceil(sqrt n) additional distinct vertices have been visited,
    using the distributed top-down filling machinery of {!Phase_walk}; later
    phases walk on the Schur complement SCHUR(G, S) of the not-yet-visited
    vertex set (skipping everything already visited) and recover first-visit
    edges in G through the shortcut graph (Algorithm 4). The union of
    first-visit edges is the sampled spanning tree.

    Every communication and matrix multiplication is metered on the supplied
    {!Cc_clique.Net}; with the [Charged] matmul backend at alpha = 0.158 the
    measured rounds reproduce the paper's Õ(n^(1/2+alpha)) bound (bench E3).

    Input graphs must be connected; weighted graphs are supported per
    footnote 1 (positive integer-ish weights), with the Algorithm 4 factors
    generalized to [w(u,v)/w_S(u)]. *)

type schur_mode = Plan.schur_mode =
  | Exact_solve
      (** compute SCHUR/SHORTCUT by exact linear algebra; rounds are still
          charged as the paper's powering pipeline (the solve is a simulator
          shortcut, not a different distributed algorithm). *)
  | Powering
      (** the paper's route (Corollaries 3-4): k-step powering of the
          absorbing chain, k = {!Plan.schur_k}, the power of two at least
          16·n³. *)

type config = {
  backend : Cc_clique.Matmul.backend;
  bits : int option;
      (** fixed-point fractional bits for every matrix pipeline (Section 3.5);
          [None] = IEEE double ("exact") arithmetic. *)
  schur : schur_mode;
  matching : Phase_walk.matching_mode;
  lazy_walk : bool;
      (** run each phase on the lazy chain (I+P)/2. Default true: on
          bipartite (sub)graphs the plain chain is periodic, so entries at
          power-of-two spacings all share one parity class and the rho-th
          distinct vertex cannot appear before the final level — the leader's
          partial walk then materializes to the full Theta(n^3) target
          length. The paper's leader stores that for free (local space is
          unbounded in the model); the simulator avoids it. Self-loop steps
          never create first-visit edges and the embedded non-lazy walk is
          exactly the original walk, so the sampled tree's distribution is
          unchanged. *)
}

(** [default_config]: Charged matmul at alpha 0.158, exact arithmetic,
    Exact_solve Schur, Resample matching, the lazy walk.

    Every config shares the paper's phase parameters, resolved against n
    by {!Plan.create}: rho = max 2 (ceil (sqrt n)) distinct vertices per
    phase, and a per-phase target length of
    next_pow2(n^3 · max 1 (ceil (log2 n))), the Theta(n^3 log n) of
    Section 3.1. *)
val default_config : config

type result = {
  tree : Cc_graph.Tree.t;
  phases : int;
  rounds : float;  (** rounds booked on the net by this sample. *)
  walk_total : int;  (** total length of the underlying walk across phases. *)
  health : Cc_clique.Fault.health;
      (** fault-recovery outcome. [Healthy] on a clean run. [Healed]: drops
          were retransmitted and corrupted matrix shares / walk segments
          recomputed — the tree is exactly as trustworthy as a fault-free
          sample. [Unrecoverable]: a machine crashed (the Schur pipeline
          needs every machine), so the run degraded to {!Sequential.sample}
          at the leader — the tree is still an exact sample, but the
          sublinear round bound is lost. *)
}

(** {1 Prepared plans}

    The pipeline splits into a graph-only half and a seed-dependent half:
    [prepare] computes everything that depends on the graph alone, a
    {!Plan.t} (the phase-1 transition matrix and its power table, and the
    word-bounded memo of later phases' Schur/shortcut state) plus the
    clique settings, and [draw] runs the walk + matching phases against a
    plan. The contract, relied on by the ccserve plan cache:

    - [draw (prepare g) net prng] consumes exactly the same prng stream and
      books exactly the same Net events as [sample net prng g]; recorder
      digests are byte-identical whether a plan is fresh or reused.
    - A reused plan skips the pure compute (matrix powers, Schur solves —
      no [shortcut.*]/[schur.*] trace spans on a memo hit) but never the
      communication: the clique pays the paper's rounds on every draw. *)

type plan

(** [prepare ?config g] runs the graph-only phases.
    @raise Invalid_argument on disconnected input. *)
val prepare : ?config:config -> Cc_graph.Graph.t -> plan

(** [draw plan net prng] draws one tree from a prepared plan; see
    {!sample} for the walk and fault semantics.
    @raise Invalid_argument if [Net.n net] differs from the plan's vertex
    count. *)
val draw : plan -> Cc_clique.Net.t -> Cc_util.Prng.t -> result

(** [plan_state plan] is the plan's graph-only state. *)
val plan_state : plan -> Plan.t

(** [plan_stats plan] is [(draws, memo_hits, memo_misses)] of
    {!Plan.stats}: cumulative draws served and later-phase memo traffic. *)
val plan_stats : plan -> int * int * int

(** {1 One-shot sampling} *)

(** [sample ?config net prng g] draws one spanning tree of the
    connected graph [g]. [Net.n net] must equal the vertex count; the walk
    starts at vertex 0 (the leader's vertex, as in Algorithm 1).
    Equivalent to [draw (prepare ?config g) net prng].

    Under fault injection (a net armed via {!Cc_clique.Net.with_faults})
    the sampler self-heals: lost packets are
    retransmitted by the transport, corrupted matrix shares and walk
    segments are detected by checksums and recomputed (metered under
    [":retry"] labels), and crash-stop failures degrade the run to the
    sequential baseline with [health = Unrecoverable] — no exception
    escapes for injected faults.
    @raise Invalid_argument on disconnected input or clique size mismatch.
    @raise Failure if the phase loop passes its bound of
    64·(1 + floor (sqrt n)) phases, which only a defect does: the loop ends
    with probability 1, and at the paper's target length in about sqrt n
    phases with high probability. *)
val sample :
  ?config:config ->
  Cc_clique.Net.t ->
  Cc_util.Prng.t ->
  Cc_graph.Graph.t ->
  result
