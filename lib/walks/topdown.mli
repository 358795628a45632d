(** Sequential top-down random-walk filling (Sections 3.1.1 and 3.1.2).

    Instead of stepping a walk forward, fix the start, sample the endpoint
    from [P^l[start, *]], then recursively fill in midpoints: between
    consecutive partial-walk entries at distance [delta], a midpoint [w] is
    drawn with probability proportional to
    [P^(delta/2)[a, w] * P^(delta/2)[w, b]]  (Formula 1).

    Filling every level is the exact algorithm of Lemma 1;
    [sample_truncated_matrix] adds the per-level truncation of Lemma 2,
    producing a walk that ends at time tau = min(l, first time the rho-th
    distinct vertex is seen). It is the sequential phase walk of
    {!Cc_sampler.Sequential}, and test/shared/shared.ml drives it from a
    graph as the reference the Congested Clique implementation is validated
    against. *)

(** [levels_for ~len] is log2 of the power of two >= len — the number of
    filling levels needed for a target length [len]. *)
val levels_for : len:int -> int

(** A power table [[| P; P^2; P^4; ... |]] as both walk fillers read it,
    this module's and {!Cc_sampler.Phase_walk}'s. *)
type table = private {
  powers : Cc_linalg.Mat.t array;
  mixed : int;
      (** the mixed level m of {!Cc_linalg.Mat.squarings}, or
          [Array.length powers] when the table has none. The level that
          fills gap 2{^g} reads [powers.(g - 1)], so it is a mixed level
          iff g - 1 >= m: its matrix is [powers.(m)] itself. *)
  shared : float array;
      (** the cdf of row 0 of [powers.(m)], as {!Cc_util.Dist.cdf_in_place}
          builds it: the one law every midpoint of a mixed level is drawn
          from, within 1e-10 in total variation of each pair's Formula 1
          law (DESIGN.md §17); [[||]] when there is no mixed level *)
}

(** [table (powers, mixed)] is the table with the mixed level [mixed], as
    {!Cc_linalg.Mat.squarings} and
    {!Cc_clique.Matmul.power_table_pure} return them; [None] gives every
    level its per-pair Formula 1 laws. *)
val table : Cc_linalg.Mat.t array * int option -> table

(** [sample_truncated_matrix prng ~table ~start ~target_len ~rho] runs the
    Lemma 2 algorithm driven directly by a power table of length at least
    [levels_for target_len + 1] rather than by a graph — the form later
    phases need (the phase graph is a Schur complement given as a matrix),
    and the form in which a prepared plan reuses one table across many
    draws. A mixed level draws every midpoint from [table.shared] by
    inverse CDF at [Prng.float prng 1.0], any other level each midpoint
    from its pair's Formula 1 law by {!Cc_util.Dist.sample_weights}.
    @raise Invalid_argument if [target_len <= 0] or the table is too
    short.
    @raise Failure if a partial walk grows past 4,000,000 vertices. *)
val sample_truncated_matrix :
  Cc_util.Prng.t ->
  table:table ->
  start:int ->
  target_len:int ->
  rho:int ->
  int array

(** [midpoint_weights powers ~gap_exp ~a ~b] is the unnormalized Formula 1
    weight vector for a midpoint between [a] and [b] at gap [2^gap_exp];
    exposed for the distributed implementation and for tests. *)
val midpoint_weights :
  Cc_linalg.Mat.t array -> gap_exp:int -> a:int -> b:int -> float array
