(** The paper's {e sequential} phased sampler (Section 1.2).

    Section 1.2 introduces the algorithm in a sequential form before porting
    it to the Congested Clique: in each phase, build a truncated top-down
    walk (Lemma 2) on the Schur complement of the not-yet-visited vertices,
    recover first-visit edges in G through the shortcut graph, and repeat
    until the tree is complete. This module is that algorithm verbatim — no
    simulator, no communication accounting — and serves two roles:

    - a mid-fidelity reference: it exercises the phase structure,
      Schur/shortcut machinery and Algorithm 4 exactly as the distributed
      sampler does, while replacing the distributed walk internals
      (binary-search truncation, multiset compression, matching placement)
      with the sequential Lemma 2 walk, isolating where a distributional bug
      would live;
    - a practical standalone sampler whose per-phase work is one linear
      solve + one truncated walk, i.e. the Kelner–Madry-style shortcutting
      idea in its simplest executable form. *)

type result = {
  tree : Cc_graph.Tree.t;
  phases : int;
  walk_total : int;  (** total truncated-walk length across phases *)
}

(** {1 Prepared plans}

    The same prepare/draw split as {!Sampler}, whose graph-only state this
    plan is: a {!Plan.t}, with its phase-1 power table and its word-bounded
    memo of later phases. [draw] consumes exactly the prng stream [sample]
    would, so a cached plan and a fresh run produce identical trees for the
    same seed. *)

type plan = Plan.t

(** @raise Invalid_argument on disconnected input. *)
val prepare : ?lazy_walk:bool -> Cc_graph.Graph.t -> plan

val draw : plan -> Cc_util.Prng.t -> result

(** {1 One-shot sampling} *)

(** [sample ?lazy_walk g prng] draws a spanning tree of the connected
    graph [g], starting the underlying walk at vertex 0, with
    {!Sampler}'s phase parameters (rho and the target length of
    {!Plan.create}); [lazy_walk] defaults to true, as in
    {!Sampler.default_config}. Equivalent to
    [draw (prepare ?lazy_walk g) prng]. *)
val sample : ?lazy_walk:bool -> Cc_graph.Graph.t -> Cc_util.Prng.t -> result

(** [sample_tree g prng] is [sample] discarding statistics. *)
val sample_tree : Cc_graph.Graph.t -> Cc_util.Prng.t -> Cc_graph.Tree.t
