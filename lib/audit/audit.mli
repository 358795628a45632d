(** Online statistical auditing of spanning-tree samplers.

    The paper's headline claim is distributional: the algorithm outputs a tree
    drawn from the (weighted) uniform spanning-tree distribution. The systems
    planes (traces, metrics, replay) say nothing about whether that claim
    holds, so this module watches the {e statistical} plane. By Kirchhoff's
    theorem the marginal inclusion probability of edge [e] under the UST
    distribution is exactly its leverage score [w_e * R_eff(e)], which
    {!Cc_graph.Graph.edge_resistances} computes — an exact online oracle
    available for every instance, not just enumerable ones.

    An auditor accumulates, tree by tree:
    - per-edge inclusion counts, compared against the leverage oracle with
      per-edge z-scores under a Bonferroni-corrected gate and a chi-square
      aggregate gate;
    - tree-feature histograms (max degree, leaf count, diameter, root depth) —
      report-only diagnostics that catch bias the marginals can miss;
    - an effective-sample-size estimate from lag-1 autocorrelation of the
      per-edge inclusion sequences (≈ trials for iid samplers, collapses for
      slowly-mixing chains);
    - running TV/KL estimates between the empirical edge-marginal vector and
      the oracle, via {!Cc_util.Dist};
    - on small instances (n ≤ 8 and at most 20,000 spanning trees),
      the full empirical distribution over spanning trees against the exact
      Matrix–Tree one: TV, KL, and a chi-square gate over the enumerated
      support.

    Observation is zero-perturbation by construction: it draws no randomness,
    touches no [Net], and never mutates the graph or tree, so audited and
    unaudited runs produce byte-identical recorder digests. The caller feeds
    the trees it draws to {!observe}; the samplers themselves know nothing
    of the auditor. *)

type t

(** {1 Construction} *)

(** [create ?alpha g] precomputes the leverage-score oracle
    ({!Cc_graph.Graph.edge_resistances}: every edge's resistance read from
    one inverse of the Laplacian grounded at vertex n - 1) and, when
    n <= 8 and the spanning-tree count is at most 20,000, the enumerated
    support and exact tree distribution. [alpha] is the false-positive
    budget shared by every gate (default [1e-3]). The asymptotic gates
    (["bonferroni-z"], ["chi2-edges"] and ["small-chi2"]) abstain below
    32 trees.

    @raise Invalid_argument if [g] is disconnected or [alpha] is outside
    (0, 1). *)
val create : ?alpha:float -> Cc_graph.Graph.t -> t

(** {1 Accumulation} *)

(** [observe t tree] folds one sampled tree into the audit state: O(n + m)
    per call, no randomness, no I/O. Trees that are not spanning trees of the
    audited graph are counted and excluded from the statistics; a nonzero
    invalid count breaches the verdict's ["valid-trees"] gate. *)
val observe : t -> Cc_graph.Tree.t -> unit

(** {1 Statistics} *)

type edge_stat = {
  u : int;
  v : int;
  leverage : float;  (** exact marginal: [w_e * R_eff(e)], clamped to [0,1] *)
  count : int;  (** trees containing the edge *)
  z : float;  (** standardized deviation; [0.] for bridges *)
  bridge : bool;  (** leverage ≈ 1: the edge is in every spanning tree *)
}

(** [edge_stats t] is one entry per graph edge, in {!Cc_graph.Graph.edges}
    order. *)
val edge_stats : t -> edge_stat list

(** [z_threshold t] is the Bonferroni-corrected per-edge threshold
    [sqrt (2 ln (2 m' / alpha))] over the [m'] non-bridge edges (subgaussian
    tail bound, conservative for binomials). *)
val z_threshold : t -> float

(** [max_z t] is the largest absolute z-score over non-bridge edges
    ([0.] when every edge is a bridge). *)
val max_z : t -> float

(** [tv_edges t] / [kl_edges t] compare the normalized empirical edge-marginal
    vector against the normalized oracle vector (both sum to n-1 before
    normalization) via {!Cc_util.Dist}; [nan] before the first observation. *)
val tv_edges : t -> float

val kl_edges : t -> float

(** [ess t] is the lag-1 autocorrelation ESS estimate
    [trials * (1 - rho) / (1 + rho)], clamped to [[1, trials]], with one
    [rho] pooled over the informative edges (empirical marginal p_i strictly
    between 0.01 and 0.99):
    [rho = sum_i (lag1_i / (trials - 1) - p_i^2) / sum_i p_i (1 - p_i)],
    clamped to [[-0.99, 0.99]], where [lag1_i] counts the consecutive pairs
    of trees that both contain edge i. It equals [trials] when there is no
    informative edge or fewer than two trials. *)
val ess : t -> float

(** [small_tv t] is the running TV distance between the empirical tree
    distribution and the exact Matrix–Tree one; [None] when the instance is
    not small enough for enumeration. The artifact's small line also
    carries the KL divergence. *)
val small_tv : t -> float option

(** {1 Verdict} *)

type gate = {
  gate : string;  (** stable identifier, e.g. ["bonferroni-z"] *)
  applied : bool;  (** [false] when the gate abstained (e.g. too few trials) *)
  breached : bool;
  statistic : float;
  threshold : float;
  detail : string;
}

type verdict = {
  pass : bool;  (** no applied gate breached *)
  at_trials : int;
  gates : gate list;
}

(** [verdict t] evaluates every gate at the current trial count:
    ["valid-trees"] (every observed tree is a spanning tree),
    ["bridge-exact"] (bridge edges appear in every valid tree),
    ["bonferroni-z"] (max |z| against {!z_threshold}),
    ["chi2-edges"] (sum of z² against the Laurent–Massart upper tail at
    level [alpha]), and on small instances ["small-chi2"] (chi-square over
    the enumerated support against the same tail bound) and
    ["small-support"] (no observed tree outside the enumerated support).
    Features, ESS, TV and KL are diagnostics, not gates. *)
val verdict : t -> verdict

(** {1 Artifact}

    A line-oriented JSONL artifact: one [audit-header] line, one [edge] line
    per graph edge, one [feature] line per tree feature, [snapshot] lines
    taken at power-of-two trial counts, an optional [small] line, and a
    final [verdict] line. *)

(** [to_jsonl t] serializes the full audit state, ending with the current
    {!verdict}. *)
val to_jsonl : t -> string

type snapshot = {
  at : int;
  s_max_z : float;
  s_tv : float;
  s_kl : float;
  s_ess : float;
  s_small_tv : float option;
}

type feature = {
  feature : string;
  histogram : (int * int) list;  (** sparse [value, count], ascending *)
  expected : (int * float) list;
      (** exact distribution on small instances; [[]] otherwise *)
}

type small_report = {
  support : int;
  observed_support : int;
  foreign : int;  (** valid spanning trees outside the enumerated support *)
  r_small_tv : float;
  r_small_kl : float;
  r_small_chi2 : float;
}

type report = {
  r_n : int;
  r_m : int;
  r_alpha : float;
  r_trials : int;
  r_invalid : int;
  r_ess : float;
  r_tv_edges : float;
  r_kl_edges : float;
  r_edges : edge_stat list;
  r_features : feature list;
  r_snapshots : snapshot list;
  r_small : small_report option;
  r_verdict : verdict option;
}

(** [of_jsonl s] parses an artifact produced by {!to_jsonl} (unknown line
    types are ignored, for forward compatibility; a field that older
    artifacts lack takes its default). [Error] describes the first
    malformed line, named by its physical number as {!Cc_obs.Json.fold_lines}
    counts it. *)
val of_jsonl : string -> (report, string) result
