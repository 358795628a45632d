(** The load-balanced Doubling random-walk algorithm (Section 4).

    Every vertex v ends up holding a length-tau random walk originating at v,
    built in O(log tau) merging iterations: starting from k length-1 walks
    per vertex, each iteration matches walks of the first half of each
    vertex's index range with the continuation walks [W_v^{k-i}] and stitches
    them, halving k while doubling the length.

    Two placement schemes:
    - [Load_balanced]: the paper's contribution — tuples are routed through
      an [8c log n]-wise independent hash [h : [n] x [k] -> [n]]
      (Kwise_hash), so by Lemma 4 no machine receives more than
      [16 c k log n] tuples w.h.p., and each iteration completes in
      [O(max(k eta / n * log n, 1))] rounds.
    - [Unbalanced]: the original Bahmani–Chakrabarti–Xin placement, in which
      walks are sent directly to the vertex they end at — exhibits the
      Omega(n)-round hot spot (e.g. a star center) the paper fixes.

    All communication is metered through the {!Cc_clique.Net} ledger; the
    per-iteration receiver loads are also returned so bench E2 can compare
    them against the Lemma 4 bound.

    As in the paper, walks originating at different vertices share randomness
    (they are individually — not jointly — true random walks).

    {2 Fault tolerance}

    When the net carries a {!Cc_clique.Fault.t}
    ({!Cc_clique.Net.with_faults}), every iteration self-heals: the walks
    array acts as a checkpoint that is only replaced once an iteration fully
    commits; tuples
    lost to message drops or crash-stop failures are re-routed to the next
    live machine (metered under [":retry"] ledger labels); payload corruption
    is detected by application checksums and forces a re-run of the affected
    iteration from the checkpoint; a crashed machine's state is adopted by
    the next live machine from the replicated checkpoint. Re-running an
    iteration is statistically safe because only the placement hash seed is
    re-drawn — the walk randomness was fixed at initialization. If the
    coordinator (machine 0) crashes, every machine crashes, or the recovery
    budgets are exhausted, the run degrades gracefully: the returned walks
    are regenerated with the step-by-step baseline (still exact random
    walks, just slow) and [health] reports
    {!Cc_clique.Fault.Unrecoverable} — no exception ever escapes. *)

type scheme =
  | Load_balanced
      (** the hash family is [8c log n]-wise independent at c = 1:
          [8 * max 1 (ceil (log2 n))]. *)
  | Unbalanced

type result = {
  walks : int array array;
      (** [walks.(v)] = the length-tau walk from v: tau+1 vertices. *)
  iterations : int;
  max_tuples_received : int array;
      (** per iteration, the largest number of tuples any machine received in
          the placement steps (2-3) — the Lemma 4 observable. *)
  rounds : float;  (** total rounds booked on the net by this run. *)
  health : Cc_clique.Fault.health;
      (** fault-recovery outcome: [Healthy] on a clean run, [Healed] when
          every injected fault was recovered (the walks are exactly as
          trustworthy as a fault-free run), [Unrecoverable] when the run
          degraded to the sequential baseline walks. *)
}

(** [run net prng g ~tau ~scheme] builds length-tau walks for every
    vertex. [Net.n net] must equal the vertex count. Faults come from the
    injector the net was armed with, if any. *)
val run :
  Cc_clique.Net.t ->
  Cc_util.Prng.t ->
  Cc_graph.Graph.t ->
  tau:int ->
  scheme:scheme ->
  result

(** [lemma4_bound ~n ~k ~c] = [16 c k log2 n], the w.h.p. receiver-load bound
    of Lemma 4. *)
val lemma4_bound : n:int -> k:int -> c:float -> float

(** [sample_tree net prng g ~tau0] samples a uniform spanning tree via
    Corollary 1: build a length-tau walk by doubling and apply Aldous–Broder
    first-visit edges; if the walk does not cover the graph, double tau and
    retry (fresh randomness), starting from [tau0]. Returns the tree and the
    total number of walk steps consumed. Under fault injection each doubling
    run self-heals (see {!run}); a degraded run still yields exact walks, so
    the returned tree remains a valid Aldous–Broder sample.
    @raise Invalid_argument if [tau0 < 1] or [g] is not connected. *)
val sample_tree :
  Cc_clique.Net.t ->
  Cc_util.Prng.t ->
  Cc_graph.Graph.t ->
  tau0:int ->
  Cc_graph.Tree.t * int

(** [pagerank net prng g ~walks_per_node ~epsilon] estimates the PageRank
    vector with restart probability [epsilon] from the endpoints of
    geometrically-stopped walks (the Section 1.1 / BCX application): builds
    length-[O(log n / epsilon)] walks by doubling and histograms the
    geometric-time positions. Returns the normalized estimate. *)
val pagerank :
  Cc_clique.Net.t ->
  Cc_util.Prng.t ->
  Cc_graph.Graph.t ->
  walks_per_node:int ->
  epsilon:float ->
  float array

(** [pagerank_exact g ~epsilon] is the reference PageRank by power iteration
    to fixed point (used by bench E10). *)
val pagerank_exact : Cc_graph.Graph.t -> epsilon:float -> float array
