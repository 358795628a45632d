(** Exact spanning-tree sampling by the determinantal chain rule.

    The uniform (weighted) spanning-tree distribution is determinantal: an
    edge e belongs to the random tree with probability
    [w_e * effective_resistance(e)] (its leverage score), and conditioning on
    inclusion/exclusion corresponds to contracting/deleting the edge. This
    module samples trees exactly by walking the edges in a fixed order and
    flipping each conditional coin — a third exact reference sampler that,
    unlike enumeration, scales to mid-size graphs, so the distributed
    sampler's {e edge marginals} can be validated where the full tree
    distribution is out of reach (test suite + bench A2).

    {!marginals} reads every edge's leverage from one grounded inverse
    ({!Cc_graph.Graph.edge_resistances}). {!chain_rule} keeps the grounded
    inverse of the conditioned graph and moves it by one rank-one update
    per decided edge: one elimination and O(m n^2) in all, with a fresh
    elimination only after deleting a near-bridge. *)

(** [marginals g] lists every edge with its leverage score. The scores of a
    connected graph sum to n - 1 (Foster's theorem) — checked in tests. *)
val marginals : Cc_graph.Graph.t -> ((int * int) * float) list

(** [chain_rule g ~coin] walks the edges of a connected [g] in
    {!Cc_graph.Graph.edges} order. An edge whose endpoints the edges kept
    so far already join is dropped without a coin. Every other edge gets
    [p], its leverage in [g] with the kept edges contracted and the dropped
    ones deleted, and is kept iff [coin p]. The kept edges form the tree.

    [p] is read from the conditioned graph's grounded inverse, which a kept
    edge updates by a contraction and a rejected one by a deletion. It is
    not the bits that rebuilding the graph and grounding its Laplacian at
    v give (test/walks/reference.ml): test_walks bounds the gap by 1e-8 on
    every offer. A deletion with 1 - p < 1e-2 would amplify the
    inverse's rounding by 1 / (1 - p), so the inverse is then recomputed
    from the kept and undecided edges. An edge with p >= 1 - 1e-9 (the
    audit's bridge threshold) is a bridge and is offered exactly 1.0.
    @raise Invalid_argument if [g] is disconnected, if [coin] rejects a
    bridge (an offer of 1.0, which [Prng.float prng 1.0 < 1.0] never
    does), or with {!Cc_graph.Graph.of_edges}'s weight message if [g]'s
    total weight is not finite, before any work: every weight contraction
    merges is a sum of edge weights. *)
val chain_rule : Cc_graph.Graph.t -> coin:(float -> bool) -> Cc_graph.Tree.t

(** [sample_tree g prng] draws an exactly (weighted-)uniform spanning
    tree: {!chain_rule} with the coin [Prng.float prng 1.0 < p].
    @raise Invalid_argument if [g] is disconnected. *)
val sample_tree : Cc_graph.Graph.t -> Cc_util.Prng.t -> Cc_graph.Tree.t

(** [max_marginal_gap g ~trials sampler] = the l-infinity distance between
    [marginals g] and the sampler's empirical marginals. *)
val max_marginal_gap :
  Cc_graph.Graph.t ->
  trials:int ->
  (Cc_graph.Graph.t -> Cc_graph.Tree.t) ->
  float
