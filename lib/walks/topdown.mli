(** Sequential top-down random-walk filling (Sections 3.1.1 and 3.1.2).

    Instead of stepping a walk forward, fix the start, sample the endpoint
    from [P^l[start, *]], then recursively fill in midpoints: between
    consecutive partial-walk entries at distance [delta], a midpoint [w] is
    drawn with probability proportional to
    [P^(delta/2)[a, w] * P^(delta/2)[w, b]]  (Formula 1).

    [sample_walk] is the exact algorithm of Lemma 1; [sample_truncated] adds
    the per-level truncation of Lemma 2, producing a walk that ends at time
    tau = min(l, first time the rho-th distinct vertex is seen). These are
    the references the Congested Clique implementation (Cc_sampler) is
    validated against. *)

type partial_walk = {
  gap_exp : int;  (** consecutive entries are endpoints of 2^gap_exp-walks *)
  verts : int array;  (** the materialized entries, chronological *)
}

(** [levels_for ~len] is log2 of the power of two >= len — the number of
    filling levels needed for a target length [len]. *)
val levels_for : len:int -> int

(** [initial_walk prng powers ~start ~levels] is W_1 = (w_0, w_l) with
    [l = 2^levels] and [w_l ~ P^l[start, *]] (Algorithm 1, line 4).
    [powers.(j)] must be [P^(2^j)]. *)
val initial_walk :
  Cc_util.Prng.t -> Cc_linalg.Mat.t array -> start:int -> levels:int -> partial_walk

(** [fill_level prng powers w] inserts one midpoint between every consecutive
    pair (one level of the top-down process); halves [gap_exp].
    @raise Invalid_argument if [gap_exp = 0]. *)
val fill_level :
  Cc_util.Prng.t -> Cc_linalg.Mat.t array -> partial_walk -> partial_walk

(** [fill_level_truncated prng powers w ~rho] additionally truncates the
    result at the first occurrence of the rho-th distinct vertex
    (Section 3.1.2). *)
val fill_level_truncated :
  Cc_util.Prng.t ->
  Cc_linalg.Mat.t array ->
  partial_walk ->
  rho:int ->
  partial_walk

(** [sample_walk g prng ~start ~len] runs the full Lemma 1 algorithm and
    returns the complete walk [w_0 .. w_len]. [len] must be a positive power
    of two. *)
val sample_walk :
  Cc_graph.Graph.t -> Cc_util.Prng.t -> start:int -> len:int -> int array

(** [sample_truncated g prng ~start ~target_len ~rho ?max_material ()] runs
    the Lemma 2 algorithm: the returned walk ends at
    tau = min(target_len, first occurrence of the rho-th distinct vertex).
    [target_len] is rounded up to a power of two. [max_material] (default
    4_000_000) caps the materialized walk length as a memory guard.
    @raise Failure if the cap is exceeded. *)
val sample_truncated :
  Cc_graph.Graph.t ->
  Cc_util.Prng.t ->
  start:int ->
  target_len:int ->
  rho:int ->
  ?max_material:int ->
  unit ->
  int array

(** [sample_truncated_matrix prng ~powers ~start ~target_len ~rho] is
    [sample_truncated] driven directly by a power table
    [[| P; P^2; P^4; ... |]] of length at least [levels_for target_len + 1]
    rather than by a graph — the form later phases need (the phase graph is
    a Schur complement given as a matrix), and the form in which a prepared
    plan reuses one table across many draws.
    @raise Invalid_argument if [target_len <= 0] or [powers] is too short. *)
val sample_truncated_matrix :
  Cc_util.Prng.t ->
  powers:Cc_linalg.Mat.t array ->
  start:int ->
  target_len:int ->
  rho:int ->
  ?max_material:int ->
  unit ->
  int array

(** [midpoint_weights powers ~gap_exp ~a ~b] is the unnormalized Formula 1
    weight vector for a midpoint between [a] and [b] at gap [2^gap_exp];
    exposed for the distributed implementation and for tests. *)
val midpoint_weights :
  Cc_linalg.Mat.t array -> gap_exp:int -> a:int -> b:int -> float array
