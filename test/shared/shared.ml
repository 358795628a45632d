(* The helpers and references that several test suites share. Each suite
   that needs one links this library instead of keeping a copy. Test-only:
   nothing in lib/ calls this module.

   - [laplacian], [effective_resistance] and [endpoint_distribution]:
     exact oracles, built from their definitions or one elimination, that
     the suites feed to or compare with the library's eliminations and
     samplers.
   - [sample_walk] and [sample_truncated]: the sequential top-down fills of
     Sections 3.1.1 and 3.1.2 (Lemmas 1 and 2) driven from a graph, the
     references the distributed phase walk is pinned against.
   - [mat_equal], [is_row_stochastic], [distinct_count], [messages],
     [metric] and [profile_summary]: checks and readers over the library's
     public results. *)

module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Dist = Cc_util.Dist
module Topdown = Cc_walks.Topdown
module Net = Cc_clique.Net
module Metrics = Cc_obs.Metrics
module Profile = Cc_obs.Profile

(* L = D - A entry by entry: the weighted degree on the diagonal and the
   negated weight off it, so a non-edge is -0.0. *)
let laplacian g =
  let n = Graph.n g in
  Mat.init ~rows:n ~cols:n (fun u v ->
      if u = v then Graph.weighted_degree g u else -.Graph.edge_weight g u v)

(* The same shape, and every entry within [tol]. *)
let mat_equal ?(tol = 1e-12) a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Mat.max_abs_diff a b <= tol

(* Every entry at least -tol and every row sum, left to right, within tol
   of 1; NaN fails both. *)
let is_row_stochastic ?(tol = 1e-9) m =
  let ok = ref true in
  for i = 0 to Mat.rows m - 1 do
    let sum = ref 0.0 in
    for j = 0 to Mat.cols m - 1 do
      let x = Mat.get m i j in
      if not (x >= -.tol) then ok := false;
      sum := !sum +. x
    done;
    if not (Float.abs (!sum -. 1.0) <= tol) then ok := false
  done;
  !ok

(* R_eff(u, v) between two distinct vertices of a connected graph, read as
   a diagonal entry: x_u of x = L_UU^-1 e_u, grounded at v, so no
   difference is taken. *)
let effective_resistance g u v =
  let n = Graph.n g in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Shared.effective_resistance: vertex out of range";
  if u = v then invalid_arg "Shared.effective_resistance: identical vertices";
  let _, f = Graph.eliminate g ~keep:[| v |] in
  let r = if u < v then u else u - 1 in
  let b = Array.make (n - 1) 0.0 in
  b.(r) <- 1.0;
  (Cc_linalg.Gth.solve f b).(r)

(* The exact law of w_len for a walk from [start]: row [start] of P^len. *)
let endpoint_distribution g ~start ~len =
  Dist.of_weights (Mat.row (Mat.power (Graph.transition_matrix g) len) start)

(* Lemma 2: the endpoint from P^l, then every level's midpoints by
   Formula 1, each level truncated at the rho-th distinct vertex. The table
   has no mixed level, so every level reads its pairs' own laws. *)
let sample_truncated g prng ~start ~target_len ~rho =
  let powers =
    Mat.power_table (Graph.transition_matrix g)
      ~max_exp:(Topdown.levels_for ~len:target_len)
  in
  Topdown.sample_truncated_matrix prng
    ~table:(Topdown.table (powers, None))
    ~start ~target_len ~rho

(* Lemma 1: with rho past n no level truncates, so every level is filled
   and the walk has [len] steps. *)
let sample_walk g prng ~start ~len =
  if len <= 0 || len land (len - 1) <> 0 then
    invalid_arg "Shared.sample_walk: len must be a positive power of two";
  sample_truncated g prng ~start ~target_len:len ~rho:(Graph.n g + 1)

let distinct_count walk = List.length (List.sort_uniq compare (Array.to_list walk))

(* The messages a net booked, summed over its ledger's labels. *)
let messages net =
  List.fold_left (fun acc (_, _, m, _) -> acc + m) 0 (Net.ledger net)

(* The metrics registry's current value for [name], if any. *)
let metric name = List.assoc_opt name (Metrics.snapshot ())

(* The last line of a rendered profile: the max, mean, p50 and p95 of the
   per-machine loads, the imbalance, and the hottest machine if any. *)
let profile_summary p =
  let lines = String.split_on_char '\n' (String.trim (Profile.render p)) in
  List.nth lines (List.length lines - 1)
