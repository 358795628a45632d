(** The distributed truncated random walk of one phase (Section 3.1.3).

    Given the power table of the phase graph's transition matrix (G in
    phase 1, a Schur complement in later phases), this module runs the full
    Congested Clique pipeline on the simulator:

    - {b Initialization} (Algorithm 1): the bookings of the distributed
      power table P, P^2, ..., P^l and sampling of the endpoint w_l from
      P^l[w_0, *].
    - {b Midpoint Request and Generation} (Algorithm 2): count (start,end)
      pairs, route requests to per-pair machines, acquire the Formula 1
      distribution, sample midpoint sequences.
    - {b Check / distributed binary search} (Algorithm 3): find the
      truncation point t — the first index at which the rho-th distinct
      vertex appears in the "magical" filled walk — by binary search with
      each probe exchanging real packets.
    - {b Midpoint Placement}: collect only the multiset of midpoints, place
      the final midpoint exactly, and re-place the rest by sampling a
      weighted perfect matching between midpoint identities and
      (start,end)-pair positions (the exact DP on the cheaper
      margin of the contingency table, or the "magical" assignment past its
      state cap and in the ablation mode — by Theorem 3 both induce the same
      walk law).

    At a mixed level of the table ({!Cc_walks.Topdown.table}) every pair
    class draws its midpoints from the table's shared law instead of its
    own Formula 1 law, and placement keeps the magical order: the draws are
    i.i.d., so that order already has the uniform law the DP would draw on
    equal weights. Each midpoint's law moves by at most 1e-10 in total
    variation (DESIGN.md §17); the bookings are those of any other level.

    All data movement is metered through the [Net] ledger; the power
    table's products are booked with the configured [Matmul] backend, and
    the table itself, Lemma 3's fixed-point truncation included, is the
    caller's. *)

type matching_mode =
  | Resample  (** the paper's pipeline: multiset + perfect matching *)
  | Magical
      (** ablation: keep the original per-pair ordering (never communicated
          in the real algorithm; same distribution by Theorem 3). *)

type stats = {
  levels : int;
  checks : int;  (** total binary-search probes across levels *)
  midpoints_placed : int;
  matchings_exact : int;  (** placements solved by the exact DP *)
  matchings_mcmc : int;
      (** placements past the DP's cap, more than 50,000 states on both
          margins, that kept the magical order. The name predates the
          magical fallback: these once ran a swap chain from that order. *)
  placements_mixed : int;
      (** placements at mixed levels, which keep the magical order without
          a DP (counted as [phase_walk.placements_mixed]) *)
}

(** [run net prng ~backend ~table ~machine_of ~start ~rho ~target_len
    ~matching] returns the walk (as indices into the phase graph) ending
    at time tau = min(target_len rounded up to a power of two, first
    occurrence of the rho-th distinct vertex), together with statistics.

    [table] is the phase graph's power table
    ({!Cc_clique.Matmul.power_table_pure} of its transition, with
    [levels_for target_len] levels), which the caller's plan computes;
    [run] books its Initialization Step through
    {!Cc_clique.Matmul.book_power_table}. [machine_of i] is the clique
    machine hosting phase-vertex [i] (identity in phase 1, the S-array in
    later phases).
    @raise Invalid_argument if [rho] < 2, [target_len] < 2, the table does
    not hold [Topdown.levels_for ~len:target_len + 1] matrices or they are
    not square, or [start] is not a phase vertex. *)
val run :
  Cc_clique.Net.t ->
  Cc_util.Prng.t ->
  backend:Cc_clique.Matmul.backend ->
  table:Cc_walks.Topdown.table ->
  machine_of:(int -> int) ->
  start:int ->
  rho:int ->
  target_len:int ->
  matching:matching_mode ->
  int array * stats
