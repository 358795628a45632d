(** Wilson's algorithm: uniform spanning trees via loop-erased random walks.

    Faster than Aldous–Broder on many graphs (expected time = mean hitting
    time); cited by the paper as the other classical walk-based sampler and
    used as a second baseline in benches E3/E5 and as an independent check
    that two exact samplers agree with the Matrix–Tree distribution. *)

(** [sample g prng ~root] returns the tree and the total number of walk steps
    taken (including erased loops). [g] must be connected. *)
val sample :
  Cc_graph.Graph.t -> Cc_util.Prng.t -> root:int -> Cc_graph.Tree.t * int

(** [sample_tree g prng] is [sample] rooted at 0, discarding the step
    count. *)
val sample_tree : Cc_graph.Graph.t -> Cc_util.Prng.t -> Cc_graph.Tree.t

(** [sample_biased g prng] is a {e deliberately wrong} sampler: it rejects
    trees containing the lexicographically least edge of [g] (up to three
    redraws), deflating that edge's marginal from its leverage [p] to about
    [p^4]. It exists as the negative fixture for the statistical audit plane
    ([Cc_audit.Audit]): an auditor that accepts it is broken. *)
val sample_biased : Cc_graph.Graph.t -> Cc_util.Prng.t -> Cc_graph.Tree.t
