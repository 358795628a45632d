(* Tests for Cc_sampler — the paper's main contribution (Theorem 2).

   Correctness is checked at three granularities:
   1. Phase_walk alone, against the sequential truncated walk (Lemma 2).
   2. The full multi-phase sampler's trees, against exact enumeration
      (Matrix-Tree) on several small graphs, in multiple configurations
      (matching resampling vs magical, exact vs powering Schur, exact vs
      fixed-point arithmetic).
   3. Structural invariants and round accounting on larger graphs. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Walk = Cc_walks.Walk
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Matmul = Cc_clique.Matmul
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Stats = Cc_util.Stats
module Mat = Cc_linalg.Mat
module Sampler = Cc_sampler.Sampler
module Phase_walk = Cc_sampler.Phase_walk
module Sequential = Cc_sampler.Sequential
module Plan = Cc_sampler.Plan

let default = Sampler.default_config

(* --- Phase_walk vs the sequential reference (Lemma 2) --- *)

(* The power table [Phase_walk.run] walks on, as a plan computes it. *)
let table ?bits trans ~target_len =
  Cc_walks.Topdown.table
    (Matmul.power_table_pure ?bits trans
       ~levels:(Cc_walks.Topdown.levels_for ~len:target_len))

let phase_walk_once ?(matching = Phase_walk.Resample) g
    ~rho ~target_len prng =
  let n = Graph.n g in
  let net = Net.create ~n in
  let table = table (Graph.transition_matrix g) ~target_len in
  fst
    (Phase_walk.run net prng ~backend:(Matmul.charged ()) ~table
       ~machine_of:(fun i -> i)
       ~start:0 ~rho ~target_len ~matching)

let test_phase_walk_is_valid_walk () =
  let g = Gen.complete 6 in
  let prng = Prng.create ~seed:1 in
  for _ = 1 to 20 do
    let w = phase_walk_once g ~rho:3 ~target_len:256 prng in
    for i = 1 to Array.length w - 1 do
      if not (Graph.has_edge g w.(i - 1) w.(i)) then
        Alcotest.failf "invalid step %d -> %d" w.(i - 1) w.(i)
    done;
    Alcotest.(check bool) "<= rho distinct" true (Shared.distinct_count w <= 3)
  done

let test_phase_walk_mcmc_fallback () =
  (* Past the DP's cap on both margins, placement keeps the magical order and
     draws nothing. 24 distinct midpoints at 24 distinct pairs: 2^24 states
     either way. The placement is the reference's, which the property below
     pins to the library's level loop draw for draw. *)
  let identities = Array.init 24 (fun i -> 23 - i) in
  let positions = Array.init 24 (fun i -> (i, i + 1)) in
  let weight ~v ~p ~q = 1.0 +. (float_of_int ((v + p + q) mod 5) /. 10.0) in
  let prng = Prng.create ~seed:3 and fresh = Prng.create ~seed:3 in
  let placed, exact = Reference.place prng ~identities ~positions ~weight in
  Alcotest.(check bool) "not the DP" false exact;
  Alcotest.(check (array int)) "magical order" identities placed;
  Alcotest.(check int) "no draw consumed" (Prng.int fresh (1 lsl 30))
    (Prng.int prng (1 lsl 30));
  (* Under the cap the DP draws: a permutation of the same multiset. *)
  let placed, exact =
    Reference.place prng ~identities:(Array.sub identities 0 8)
      ~positions:(Array.sub positions 0 8) ~weight
  in
  Alcotest.(check bool) "the DP" true exact;
  Alcotest.(check (list int)) "same multiset"
    (List.sort compare (Array.to_list (Array.sub identities 0 8)))
    (List.sort compare (Array.to_list placed));
  (* On K12 with rho = 12 the late levels hold placements whose position
     classes and midpoint identities are both many, so both margins pass
     50,000 states: those keep the magical order, and the filled walk must
     still be valid. *)
  let g = Gen.complete 12 in
  let net = Net.create ~n:12 in
  let prng = Prng.create ~seed:1 in
  let w, stats =
    Phase_walk.run net prng ~backend:(Matmul.charged ())
      ~table:(table (Graph.transition_matrix g) ~target_len:1024)
      ~machine_of:(fun i -> i)
      ~start:0 ~rho:12 ~target_len:1024
      ~matching:Phase_walk.Resample
  in
  Alcotest.(check bool) "magical fallback used" true (stats.Phase_walk.matchings_mcmc > 0);
  Alcotest.(check bool) "exact DP used" true (stats.Phase_walk.matchings_exact > 0);
  Alcotest.(check int) "starts at start" 0 w.(0);
  for i = 1 to Array.length w - 1 do
    if not (Graph.has_edge g w.(i - 1) w.(i)) then
      Alcotest.failf "invalid step %d -> %d" w.(i - 1) w.(i)
  done;
  Alcotest.(check bool) "<= rho distinct" true (Shared.distinct_count w <= 12)

let test_phase_walk_ends_at_fresh_vertex () =
  let g = Gen.complete 6 in
  let prng = Prng.create ~seed:2 in
  for _ = 1 to 30 do
    let w = phase_walk_once g ~rho:4 ~target_len:256 prng in
    if Shared.distinct_count w = 4 then begin
      let last = w.(Array.length w - 1) in
      let first = ref (-1) in
      Array.iteri (fun i v -> if !first < 0 && v = last then first := i) w;
      Alcotest.(check int) "last vertex is fresh" (Array.length w - 1) !first
    end
  done

(* Distribution cross-check: tau and the identity of the final vertex against
   the sequential Lemma 2 reference. *)
let test_phase_walk_tau_matches_sequential () =
  let g = Gen.cycle 6 in
  let rho = 3 and target_len = 256 and trials = 6000 in
  let histo f seed =
    let prng = Prng.create ~seed in
    let h = Hashtbl.create 64 in
    for _ = 1 to trials do
      let key = f prng in
      Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key))
    done;
    h
  in
  let tv h1 h2 =
    let keys =
      List.sort_uniq compare
        (Hashtbl.fold (fun k _ a -> k :: a) h1 []
        @ Hashtbl.fold (fun k _ a -> k :: a) h2 [])
    in
    0.5
    *. List.fold_left
         (fun acc k ->
           let c1 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h1 k)) in
           let c2 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h2 k)) in
           acc +. Float.abs ((c1 -. c2) /. float_of_int trials))
         0.0 keys
  in
  let distributed prng =
    let w = phase_walk_once g ~rho ~target_len prng in
    (Array.length w - 1, w.(Array.length w - 1))
  in
  let sequential prng =
    let w = Shared.sample_truncated g prng ~start:0 ~target_len ~rho in
    (Array.length w - 1, w.(Array.length w - 1))
  in
  let d = tv (histo distributed 3) (histo sequential 4) in
  Alcotest.(check bool) (Printf.sprintf "(tau, end) tv %.4f" d) true (d < 0.05)

let test_phase_walk_magical_equals_resampled_in_law () =
  (* Theorem 3: the multiset + matching placement has the same law as the
     magical assignment. Compare full-walk histograms on a tiny instance. *)
  let g = Gen.complete 4 in
  let rho = 3 and target_len = 64 and trials = 8000 in
  let histo matching seed =
    let prng = Prng.create ~seed in
    let h = Hashtbl.create 64 in
    for _ = 1 to trials do
      let w = phase_walk_once ~matching g ~rho ~target_len prng in
      let key = Array.to_list w in
      Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key))
    done;
    h
  in
  let h1 = histo Phase_walk.Resample 5 in
  let h2 = histo Phase_walk.Magical 6 in
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ a -> k :: a) h1 []
      @ Hashtbl.fold (fun k _ a -> k :: a) h2 [])
  in
  let tv =
    0.5
    *. List.fold_left
         (fun acc k ->
           let c1 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h1 k)) in
           let c2 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h2 k)) in
           acc +. Float.abs ((c1 -. c2) /. float_of_int trials))
         0.0 keys
  in
  (* Walk space is larger than tree space; allow a looser statistical bar. *)
  Alcotest.(check bool) (Printf.sprintf "walk tv %.4f" tv) true (tv < 0.1)

(* --- Full sampler: structural checks --- *)

let test_sampler_produces_spanning_trees () =
  let prng = Prng.create ~seed:7 in
  List.iter
    (fun g ->
      let n = Graph.n g in
      let net = Net.create ~n in
      for _ = 1 to 5 do
        let r = Sampler.sample net prng g in
        Alcotest.(check bool) "spanning tree" true
          (Tree.is_spanning_tree g r.Sampler.tree);
        Alcotest.(check bool) "rounds positive" true (r.Sampler.rounds > 0.0)
      done)
    [ Gen.complete 6; Gen.cycle 9; Gen.lollipop ~clique:4 ~tail:4;
      Gen.grid ~rows:3 ~cols:3; Gen.star 8 ]

let test_sampler_rejects_bad_input () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (2, 3) ] in
  let net = Net.create ~n:4 in
  let prng = Prng.create ~seed:8 in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Sampler.sample: graph must be connected") (fun () ->
      ignore (Sampler.sample net prng g));
  let net_wrong = Net.create ~n:5 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Sampler.sample: net size must equal n") (fun () ->
      ignore (Sampler.sample net_wrong prng (Gen.cycle 4)))

let test_sampler_phase_count_scales_with_rho () =
  let g = Gen.complete 16 in
  let net = Net.create ~n:16 in
  let prng = Prng.create ~seed:9 in
  let r = Sampler.sample net prng g in
  (* rho = 4, 15 vertices to visit: at least 4 phases. *)
  Alcotest.(check bool)
    (Printf.sprintf "phases %d in [4, 16]" r.Sampler.phases)
    true
    (r.Sampler.phases >= 4 && r.Sampler.phases <= 16)

(* The phase parameters are constants of n: rho = max 2 ceil(sqrt n),
   target_len = next_pow2(n^3 · max 1 ceil(log2 n)) and the powering depth
   k = next_pow2(16 n^3), read through a prepared plan. *)
let test_plan_constants () =
  let rec next_pow2 ?(p = 1) x = if p >= x then p else next_pow2 ~p:(2 * p) x in
  let rec ceil_sqrt ?(r = 0) n = if r * r >= n then r else ceil_sqrt ~r:(r + 1) n in
  let rec ceil_log2 ?(l = 0) n = if 1 lsl l >= n then l else ceil_log2 ~l:(l + 1) n in
  List.iter
    (fun n ->
      let st = Sampler.plan_state (Sampler.prepare (Gen.complete n)) in
      let n3 = n * n * n in
      Alcotest.(check int) (Printf.sprintf "n = %d: rho" n)
        (max 2 (ceil_sqrt n)) st.Plan.rho;
      Alcotest.(check int) (Printf.sprintf "n = %d: target_len" n)
        (next_pow2 (n3 * max 1 (ceil_log2 n))) st.Plan.target_len;
      Alcotest.(check int) (Printf.sprintf "n = %d: schur_k" n)
        (next_pow2 (16 * n3)) (Plan.schur_k st))
    [ 2; 3; 16; 17; 96 ]

(* --- mixed levels (DESIGN.md §17) --- *)

(* A table's mixed level is where its squaring stopped: a computed level,
   which every later level aliases. *)
let mixed_at_stop (t : Cc_walks.Topdown.table) =
  let p = t.powers and m = t.mixed in
  m >= 1
  && m < Array.length p
  && p.(m) != p.(m - 1)
  && Array.for_all (fun x -> x == p.(m)) (Array.sub p m (Array.length p - m))

let test_mixed_levels () =
  List.iter
    (fun (name, g) ->
      let t = (Plan.create ~lazy_walk:true g).Plan.table1 in
      Alcotest.(check bool) (name ^ ": mixed at its stop") true (mixed_at_stop t);
      let cdf = Mat.row t.powers.(t.mixed) 0 in
      Dist.cdf_in_place cdf;
      Alcotest.(check (array (float 0.0)))
        (name ^ ": the shared law is row 0's cdf") cdf t.shared)
    [
      ("lazy K8", Gen.complete 8);
      ("lazy K16", Gen.complete 16);
      ("lollipop 16", Gen.lollipop ~clique:8 ~tail:8);
    ];
  let none name (t : Cc_walks.Topdown.table) =
    Alcotest.(check int) (name ^ ": no mixed level") (Array.length t.powers)
      t.mixed;
    Alcotest.(check int) (name ^ ": no shared law") 0 (Array.length t.shared)
  in
  (* An exact repeat stops the periodic chain; --bits keeps every table
     exact, later phases' included. *)
  none "non-lazy cycle 6" (Plan.create ~lazy_walk:false (Gen.cycle 6)).Plan.table1;
  List.iter
    (fun (name, g) ->
      let st = Plan.create ~bits:40 ~lazy_walk:true g in
      none (name ^ " --bits 40") st.Plan.table1;
      let n = Graph.n g in
      let visited = Array.init n (fun v -> v < n / 2) in
      none
        (name ^ " --bits 40, a later phase")
        (Lazy.force (Plan.phase st ~visited ~current:0).Plan.table))
    [ ("lazy K8", Gen.complete 8); ("lollipop 16", Gen.lollipop ~clique:8 ~tail:8) ]

let test_sampler_deterministic_given_seed () =
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  let sample seed =
    let net = Net.create ~n:7 in
    (Sampler.sample net (Prng.create ~seed) g).Sampler.tree
  in
  Alcotest.(check bool) "same seed same tree" true
    (Tree.edges (sample 42) = Tree.edges (sample 42));
  let differs = ref false in
  for seed = 0 to 9 do
    if not (Tree.edges (sample seed) = Tree.edges (sample (seed + 100))) then differs := true
  done;
  Alcotest.(check bool) "different seeds eventually differ" true !differs

(* --- Prepared plans: the ccserve prepare/draw contract --- *)

let record_run ~n f =
  let net = Net.create ~n in
  let r = Cc_obs.Recorder.create ~machines:n () in
  Net.add_sink net (Cc_obs.Recorder.add r);
  let v = f net in
  (v, Cc_obs.Recorder.digest_hex r)

let test_plan_draw_matches_sample () =
  let g = Gen.build (Prng.create ~seed:1) Cc_graph.Gen.Complete ~n:8 in
  let n = Graph.n g in
  let seed = 11 in
  let r1, d1 =
    record_run ~n (fun net -> Sampler.sample net (Prng.create ~seed) g)
  in
  let plan = Sampler.prepare g in
  let r2, d2 =
    record_run ~n (fun net -> Sampler.draw plan net (Prng.create ~seed))
  in
  Alcotest.(check bool) "same tree" true
    (Tree.edges r1.Sampler.tree = Tree.edges r2.Sampler.tree);
  Alcotest.(check string) "same digest" d1 d2

let span_names roots =
  let rec go acc s =
    List.fold_left go (s.Cc_obs.Trace.name :: acc) s.Cc_obs.Trace.children
  in
  List.fold_left go [] roots

let test_plan_reuse_skips_compute () =
  let g = Gen.build (Prng.create ~seed:1) Cc_graph.Gen.Complete ~n:8 in
  let n = Graph.n g in
  let seed = 5 in
  let plan = Sampler.prepare g in
  let draw () =
    record_run ~n (fun net -> Sampler.draw plan net (Prng.create ~seed))
  in
  let r1, d1 = draw () in
  (* Warm draw: same seed hits the per-S memo, so the Schur/shortcut
     solves are skipped entirely — no schur.* / shortcut.* spans — while
     the booked event stream stays byte-identical. *)
  let tr = Cc_obs.Trace.create () in
  let r2, d2 = Cc_obs.Trace.with_trace tr draw in
  Alcotest.(check bool) "same tree" true
    (Tree.edges r1.Sampler.tree = Tree.edges r2.Sampler.tree);
  Alcotest.(check string) "same digest" d1 d2;
  Alcotest.(check bool) "multi-phase run" true (r2.Sampler.phases > 1);
  let draws, hits, misses = Sampler.plan_stats plan in
  Alcotest.(check int) "draws" 2 draws;
  Alcotest.(check bool) "memo hits on the warm draw" true (hits >= misses);
  Alcotest.(check bool) "memo was exercised" true (misses > 0);
  let offenders =
    List.filter
      (fun name ->
        String.length name >= 5
        && (String.sub name 0 5 = "schur" || String.sub name 0 5 = "short"))
      (span_names (Cc_obs.Trace.roots tr))
  in
  Alcotest.(check (list string)) "no schur/shortcut spans when warm" []
    offenders

(* Distinct seeds on a walk-bound graph revisit vertex sets, so a shared
   plan serves later phases from its memo. Every such draw must equal a
   fresh plan's draw, in tree and in recorder digest. *)
let test_plan_reuse_distinct_seeds () =
  let g = Gen.lollipop ~clique:8 ~tail:8 in
  let n = Graph.n g in
  let plan = Sampler.prepare g in
  let seq_plan = Sequential.prepare g in
  for seed = 1 to 30 do
    let r1, d1 =
      record_run ~n (fun net -> Sampler.sample net (Prng.create ~seed) g)
    in
    let r2, d2 =
      record_run ~n (fun net -> Sampler.draw plan net (Prng.create ~seed))
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: same tree" seed)
      true
      (Tree.edges r1.Sampler.tree = Tree.edges r2.Sampler.tree);
    Alcotest.(check string) (Printf.sprintf "seed %d: same digest" seed) d1 d2;
    let s1 = Sequential.sample g (Prng.create ~seed) in
    let s2 = Sequential.draw seq_plan (Prng.create ~seed) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: sequential same tree" seed)
      true
      (Tree.edges s1.Sequential.tree = Tree.edges s2.Sequential.tree)
  done;
  let draws, hits, _ = Sampler.plan_stats plan in
  Alcotest.(check int) "draws" 30 draws;
  Alcotest.(check bool) "distinct seeds hit the memo" true (hits > 0)

let test_plan_validation () =
  let disconnected = Graph.of_unweighted_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "prepare rejects disconnected"
    (Invalid_argument "Sampler.prepare: graph must be connected") (fun () ->
      ignore (Sampler.prepare disconnected));
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  let plan = Sampler.prepare g in
  Alcotest.check_raises "draw rejects wrong net size"
    (Invalid_argument "Sampler.draw: net size must equal n") (fun () ->
      ignore (Sampler.draw plan (Net.create ~n:3) (Prng.create ~seed:0)))

let test_sequential_plan_matches_sample () =
  let g = Gen.build (Prng.create ~seed:2) Cc_graph.Gen.Complete ~n:8 in
  let seed = 3 in
  let r1 = Sequential.sample g (Prng.create ~seed) in
  let plan = Sequential.prepare g in
  let r2 = Sequential.draw plan (Prng.create ~seed) in
  let r3 = Sequential.draw plan (Prng.create ~seed) in
  Alcotest.(check bool) "plan tree = sample tree" true
    (Tree.edges r1.Sequential.tree = Tree.edges r2.Sequential.tree);
  Alcotest.(check bool) "warm draw identical" true
    (Tree.edges r2.Sequential.tree = Tree.edges r3.Sequential.tree);
  Alcotest.(check int) "same phase count" r1.Sequential.phases
    r2.Sequential.phases

(* Both samplers keep later phases in one Plan memo under one word budget.
   On lollipop 16 distinct seeds revisit vertex sets, so 400 draws from one
   plan hit its memo, and neither plan may retain more than 2^18 words. *)
let test_one_budget_for_both_plans () =
  let g = Gen.lollipop ~clique:8 ~tail:8 in
  let n = Graph.n g in
  let cc = Sampler.prepare g and seq = Sequential.prepare g in
  for seed = 1 to 400 do
    ignore (Sampler.draw cc (Net.create ~n) (Prng.create ~seed));
    ignore (Sequential.draw seq (Prng.create ~seed))
  done;
  List.iter
    (fun (name, plan) ->
      let st = Plan.stats plan in
      Alcotest.(check int) (name ^ ": draws") 400 st.Plan.draws;
      Alcotest.(check bool) (name ^ ": the memo hit") true (st.Plan.hits > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d words retained, within 2^18" name st.Plan.words)
        true
        (st.Plan.words > 0 && st.Plan.words <= 1 lsl 18))
    [ ("cc", Sampler.plan_state cc); ("sequential", seq) ];
  let _, hits, misses = Sampler.plan_stats cc in
  let st = Plan.stats (Sampler.plan_state cc) in
  Alcotest.(check (pair int int)) "plan_stats reads Plan.stats"
    (st.Plan.hits, st.Plan.misses) (hits, misses)

(* Both samplers count their phases and memo lookups in the metrics
   registry, one [sampler.phases] per phase and one memo_hit or memo_miss
   per later phase (every phase but a draw's first). *)
let test_phase_metrics_for_both_samplers () =
  let g = Gen.lollipop ~clique:8 ~tail:8 in
  let n = Graph.n g and k = 20 in
  let counter name =
    match Shared.metric name with
    | Some (Cc_obs.Metrics.Counter c) -> c
    | _ -> 0
  in
  List.iter
    (fun (name, draw) ->
      Cc_obs.Metrics.reset ();
      let phases = ref 0 in
      for seed = 1 to k do
        phases := !phases + draw seed
      done;
      let hits = counter "sampler.plan.memo_hit"
      and misses = counter "sampler.plan.memo_miss" in
      Alcotest.(check int) (name ^ ": sampler.phases") !phases
        (counter "sampler.phases");
      Alcotest.(check int) (name ^ ": hits + misses = phases - draws")
        (!phases - k) (hits + misses);
      Alcotest.(check bool) (name ^ ": the memo hit") true (hits > 0))
    [
      ( "cc",
        let plan = Sampler.prepare g in
        fun seed ->
          (Sampler.draw plan (Net.create ~n) (Prng.create ~seed)).Sampler.phases
      );
      ( "sequential",
        let plan = Sequential.prepare g in
        fun seed -> (Sequential.draw plan (Prng.create ~seed)).Sequential.phases
      );
    ];
  Cc_obs.Metrics.reset ()

(* Log-uniform real weights over [1e-3, 1e3] on an Er_log 4 graph at
   n = 16. An n x n inverse of I - T left dust, down to -8.4e-19, in the
   entries Q[prev, v] for v in S \ {prev}, which are exactly 0, and
   Algorithm 4's draw refused them as negative weights on this graph, in
   both samplers. The state now writes those entries exactly. *)
let test_wide_real_weights () =
  let prng = Prng.create ~seed:1 in
  let g = Gen.build prng (Gen.Er_log 4.0) ~n:16 in
  let g =
    Graph.of_edges ~n:16
      (List.map
         (fun (u, v, _) -> (u, v, Float.pow 10.0 (Prng.float prng 6.0 -. 3.0)))
         (Graph.edges g))
  in
  let cc = Sampler.prepare g and seq = Sequential.prepare g in
  for seed = 1 to 20 do
    let r = Sampler.draw cc (Net.create ~n:16) (Prng.create ~seed) in
    Alcotest.(check bool) "cc: spanning" true
      (Tree.is_spanning_tree g r.Sampler.tree);
    let r = Sequential.draw seq (Prng.create ~seed) in
    Alcotest.(check bool) "sequential: spanning" true
      (Tree.is_spanning_tree g r.Sequential.tree)
  done

(* --- Full sampler: distributional checks (E5 in miniature) --- *)

let sampler_tree_tv ?(config = default) g trials seed =
  let n = Graph.n g in
  let trees, lookup = Tree.index g in
  let target = Tree.weighted_distribution g trees in
  let counts = Array.make (Array.length trees) 0 in
  let net = Net.create ~n in
  let prng = Prng.create ~seed in
  for _ = 1 to trials do
    let r = Sampler.sample ~config net prng g in
    counts.(lookup r.Sampler.tree) <- counts.(lookup r.Sampler.tree) + 1
  done;
  (Dist.tv_counts ~counts target, Array.length trees)

let check_uniform ?(config = default) ?(slack = 0.01) g trials seed name =
  let tv, support = sampler_tree_tv ~config g trials seed in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. slack in
  Alcotest.(check bool)
    (Printf.sprintf "%s: tv %.4f < %.4f" name tv floor)
    true (tv < floor)

let test_uniform_k4 () = check_uniform (Gen.complete 4) 16_000 10 "K4"

let test_uniform_cycle_chord () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  check_uniform g 16_000 11 "C4+chord"

let test_uniform_grid_2x3 () =
  check_uniform (Gen.grid ~rows:2 ~cols:3) 10_000 12 "grid 2x3"

let test_uniform_k4_magical () =
  check_uniform
    ~config:{ default with matching = Phase_walk.Magical }
    (Gen.complete 4) 16_000 13 "K4 magical"

let test_uniform_k4_powering_schur () =
  check_uniform
    ~config:{ default with schur = Sampler.Powering }
    (Gen.complete 4) 8_000 14 "K4 powering"

let test_uniform_k4_fixed_point () =
  (* Section 3.5: with enough fractional bits the truncated-arithmetic
     sampler is statistically indistinguishable from the exact one. *)
  check_uniform
    ~config:{ default with bits = Some 40 }
    (Gen.complete 4) 8_000 15 "K4 40-bit"

let test_uniform_k4_nonlazy () =
  check_uniform
    ~config:{ default with lazy_walk = false }
    (Gen.complete 4) 8_000 16 "K4 non-lazy"

let test_uniform_weighted_triangle () =
  (* Footnote 1: integer weights; tree mass proportional to weight product. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ] in
  check_uniform g 16_000 17 "weighted triangle"

let test_coarse_bits_degrade_gracefully () =
  (* With very few bits the sampler must still return valid spanning trees
     (the distribution may be off — that is the Lemma 3 trade-off). *)
  let g = Gen.complete 5 in
  let net = Net.create ~n:5 in
  let prng = Prng.create ~seed:18 in
  let config = { default with bits = Some 12 } in
  for _ = 1 to 20 do
    let r = Sampler.sample ~config net prng g in
    Alcotest.(check bool) "still a spanning tree" true
      (Tree.is_spanning_tree g r.Sampler.tree)
  done

let test_phase_walk_stats_sanity () =
  let g = Gen.complete 6 in
  let net = Net.create ~n:6 in
  let prng = Prng.create ~seed:60 in
  let table = table (Graph.transition_matrix g) ~target_len:256 in
  let _, stats =
    Phase_walk.run net prng ~backend:(Matmul.charged ()) ~table
      ~machine_of:(fun i -> i)
      ~start:0 ~rho:3 ~target_len:256
      ~matching:Phase_walk.Resample
  in
  Alcotest.(check int) "levels = log2 256" 8 stats.Phase_walk.levels;
  Alcotest.(check bool) "binary search probed" true (stats.Phase_walk.checks > 0);
  Alcotest.(check bool) "placements recorded" true
    (stats.Phase_walk.matchings_exact + stats.Phase_walk.matchings_mcmc > 0);
  (* K6 mixes by level 5, so the top levels of a 256-step walk are mixed
     and place without the DP. *)
  Alcotest.(check bool) "mixed placements recorded" true
    (stats.Phase_walk.placements_mixed > 0)

(* --- failure injection / argument validation --- *)

let test_phase_walk_argument_validation () =
  let net = Net.create ~n:4 in
  let prng = Prng.create ~seed:26 in
  let trans = Graph.transition_matrix (Gen.complete 4) in
  let run ?(rho = 2) ?(target_len = 8) ?table_len ?(start = 0) () =
    let table =
      table trans ~target_len:(Option.value table_len ~default:target_len)
    in
    ignore
      (Phase_walk.run net prng ~backend:(Matmul.charged ()) ~table
         ~machine_of:(fun i -> i)
         ~start ~rho ~target_len
         ~matching:Phase_walk.Resample)
  in
  Alcotest.check_raises "rho < 2" (Invalid_argument "Phase_walk.run: rho < 2")
    (fun () -> run ~rho:1 ());
  Alcotest.check_raises "target_len < 2"
    (Invalid_argument "Phase_walk.run: target_len < 2") (fun () ->
      run ~target_len:1 ());
  Alcotest.check_raises "bad start" (Invalid_argument "Phase_walk.run: bad start")
    (fun () -> run ~start:7 ());
  (* A table for another target length is rejected before anything is
     booked. *)
  List.iter
    (fun (target_len, table_len) ->
      Alcotest.check_raises "table of the wrong length"
        (Invalid_argument "Phase_walk.run: power table length is not levels + 1")
        (fun () -> run ~target_len ~table_len ()))
    [ (16, 8); (8, 16) ];
  Alcotest.(check (float 0.0)) "nothing booked" 0.0 (Net.rounds net)

let test_weighted_marginals_match_leverage () =
  (* Footnote 1 end-to-end at a non-enumerable size: integer-weighted graph,
     CC sampler marginals vs exact (weighted) leverage scores. *)
  let prng = Prng.create ~seed:29 in
  let g0 = Gen.random_connected prng ~n:9 ~extra_edges:5 in
  let g = Gen.random_weights prng g0 ~max_weight:4 in
  let trials = 800 in
  let net = Net.create ~n:9 in
  let gap =
    Cc_walks.Determinantal.max_marginal_gap g ~trials (fun g ->
        (Sampler.sample net (Prng.split prng) g).Sampler.tree)
  in
  let tol = 4.0 *. Stats.binomial_confidence ~n:trials ~p:0.5 +. 0.015 in
  Alcotest.(check bool) (Printf.sprintf "weighted marginal gap %.4f" gap) true
    (gap < tol)

(* --- fault tolerance --- *)

let test_faulty_sampler_heals_drops () =
  let g = Gen.complete 6 in
  let f = Fault.create (Fault.spec ~drop_prob:0.1 ~seed:31 ()) in
  let net = Net.with_faults f (Net.create ~n:6) in
  let prng = Prng.create ~seed:31 in
  let healed = ref false in
  for _ = 1 to 5 do
    let r = Sampler.sample net prng g in
    Alcotest.(check bool) "spanning tree under drops" true
      (Tree.is_spanning_tree g r.Sampler.tree);
    match r.Sampler.health with
    | Fault.Healthy -> ()
    | Fault.Healed _ -> healed := true
    | Fault.Unrecoverable _ as h ->
        Alcotest.failf "drops alone degraded the sampler: %a" Fault.pp_health h
  done;
  Alcotest.(check bool) "at least one run actually healed" true !healed;
  let labels = List.map (fun (l, _, _, _) -> l) (Net.ledger net) in
  Alcotest.(check bool) "retry labels in ledger" true
    (List.exists (fun l -> Filename.check_suffix l ":retry") labels)

let test_faulty_sampler_heals_corruption () =
  let g = Gen.complete 6 in
  let f = Fault.create (Fault.spec ~corrupt_prob:0.05 ~seed:32 ()) in
  let net = Net.with_faults f (Net.create ~n:6) in
  let prng = Prng.create ~seed:32 in
  let r = Sampler.sample net prng g in
  Alcotest.(check bool) "spanning tree under corruption" true
    (Tree.is_spanning_tree g r.Sampler.tree);
  (match r.Sampler.health with
  | Fault.Healthy | Fault.Healed _ -> ()
  | Fault.Unrecoverable _ as h ->
      Alcotest.failf "corruption alone degraded the sampler: %a" Fault.pp_health h)

let test_crash_degrades_to_sequential () =
  let g = Gen.complete 8 in
  let f = Fault.create (Fault.spec ~crashes:[ (3, 1.0) ] ()) in
  let net = Net.with_faults f (Net.create ~n:8) in
  let prng = Prng.create ~seed:33 in
  (* Never an exception: a structured Unrecoverable plus a valid tree from
     the sequential fallback. *)
  let r = Sampler.sample net prng g in
  Alcotest.(check bool) "fallback tree is spanning" true
    (Tree.is_spanning_tree g r.Sampler.tree);
  (match r.Sampler.health with
  | Fault.Unrecoverable { crashed; _ } ->
      Alcotest.(check (list int)) "names the crash" [ 3 ] crashed
  | h -> Alcotest.failf "expected Unrecoverable, got %a" Fault.pp_health h);
  Alcotest.(check bool) "fallback metered as overhead" true
    (Net.overhead_rounds net > 0.0)

let test_faulty_sampler_deterministic () =
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  let go () =
    let f = Fault.create (Fault.spec ~drop_prob:0.1 ~corrupt_prob:0.02 ~seed:7 ()) in
    let net = Net.with_faults f (Net.create ~n:7) in
    let r = Sampler.sample net (Prng.create ~seed:42) g in
    (Tree.edges r.Sampler.tree, r.Sampler.health, Net.ledger net,
     Net.retransmits net, Net.dropped net)
  in
  Alcotest.(check bool) "bit-identical tree, ledger, counters" true
    (go () = go ())

let test_faulty_uniform_k4 () =
  (* Acceptance bar: healing must not bias the tree law. Same tolerance as
     the fault-free uniformity checks. *)
  let g = Gen.complete 4 in
  let trees, lookup = Tree.index g in
  let counts = Array.make (Array.length trees) 0 in
  let f = Fault.create (Fault.spec ~drop_prob:0.1 ~corrupt_prob:0.01 ~seed:34 ()) in
  let net = Net.with_faults f (Net.create ~n:4) in
  let prng = Prng.create ~seed:34 in
  let trials = 4_000 in
  for _ = 1 to trials do
    let r = Sampler.sample net prng g in
    counts.(lookup r.Sampler.tree) <- counts.(lookup r.Sampler.tree) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.uniform 16) in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support:16 +. 0.01 in
  Alcotest.(check bool)
    (Printf.sprintf "faulty K4 tv %.4f < %.4f" tv floor)
    true (tv < floor)

(* --- Sequential phased sampler (Section 1.2) --- *)

let test_sequential_produces_spanning_trees () =
  let prng = Prng.create ~seed:21 in
  List.iter
    (fun g ->
      for _ = 1 to 10 do
        let r = Sequential.sample g prng in
        Alcotest.(check bool) "spanning tree" true
          (Tree.is_spanning_tree g r.Sequential.tree);
        Alcotest.(check bool) "phases >= 1" true (r.Sequential.phases >= 1)
      done)
    [ Gen.complete 8; Gen.lollipop ~clique:5 ~tail:5; Gen.grid ~rows:3 ~cols:4 ]

let test_sequential_uniform_k4 () =
  let g = Gen.complete 4 in
  let trees, lookup = Tree.index g in
  let counts = Array.make (Array.length trees) 0 in
  let prng = Prng.create ~seed:22 in
  let trials = 16_000 in
  for _ = 1 to trials do
    let t = Sequential.sample_tree g prng in
    counts.(lookup t) <- counts.(lookup t) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.uniform 16) in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support:16 +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_sequential_uniform_cycle_chord () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let trees, lookup = Tree.index g in
  let counts = Array.make (Array.length trees) 0 in
  let prng = Prng.create ~seed:23 in
  let trials = 16_000 in
  for _ = 1 to trials do
    let t = Sequential.sample_tree g prng in
    counts.(lookup t) <- counts.(lookup t) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.uniform (Array.length trees)) in
  let floor =
    3.0 *. Stats.tv_noise_floor ~samples:trials ~support:(Array.length trees) +. 0.01
  in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_sequential_marginals_match_leverage () =
  (* Validate at a size where enumeration is infeasible: edge marginals
     against exact leverage scores. *)
  let prng = Prng.create ~seed:24 in
  let g = Gen.random_connected prng ~n:12 ~extra_edges:8 in
  let trials = 1500 in
  let gap =
    Cc_walks.Determinantal.max_marginal_gap g ~trials (fun g ->
        Sequential.sample_tree g (Prng.split prng))
  in
  let tol = 4.0 *. Stats.binomial_confidence ~n:trials ~p:0.5 +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "marginal gap %.4f" gap) true (gap < tol)

let test_distributed_marginals_match_leverage () =
  (* The same cross-validation for the full distributed sampler. *)
  let prng = Prng.create ~seed:25 in
  let g = Gen.random_connected prng ~n:10 ~extra_edges:6 in
  let trials = 800 in
  let net = Net.create ~n:10 in
  let gap =
    Cc_walks.Determinantal.max_marginal_gap g ~trials (fun g ->
        (Sampler.sample net (Prng.split prng) g).Sampler.tree)
  in
  let tol = 4.0 *. Stats.binomial_confidence ~n:trials ~p:0.5 +. 0.015 in
  Alcotest.(check bool) (Printf.sprintf "marginal gap %.4f" gap) true (gap < tol)

(* --- Round accounting --- *)

let test_rounds_scale_sublinearly_in_theory_mode () =
  (* Sanity check on shape (full sweep is bench E3): measured rounds per
     sqrt(n) phase stay near the n^alpha * polylog budget, i.e. the total is
     far below the naive step-by-step cover-time simulation ~ m*n. *)
  let prng = Prng.create ~seed:19 in
  let rounds_at n =
    let g = Gen.erdos_renyi_connected prng ~n
        ~p:(Float.min 1.0 (6.0 *. Float.log (float_of_int n) /. float_of_int n))
    in
    let net = Net.create ~n in
    let r = Sampler.sample net prng g in
    (r.Sampler.rounds, float_of_int (Graph.num_edges g * n))
  in
  (* The advantage needs n past the polylog constants; n=48 suffices. *)
  List.iter
    (fun n ->
      let rounds, naive = rounds_at n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %.0f rounds << naive %.0f" n rounds naive)
        true
        (rounds < naive /. 2.0))
    [ 48; 64 ]

let test_ledger_has_expected_components () =
  let g = Gen.complete 12 in
  let net = Net.create ~n:12 in
  let prng = Prng.create ~seed:20 in
  ignore (Sampler.sample net prng g);
  let labels = List.map (fun (l, _, _, _) -> l) (Net.ledger net) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " booked") true (List.mem expected labels))
    [ "matmul"; "power-table transpose"; "binary-search check";
      "midpoint distributions"; "shortcut powering"; "first-visit edges" ]

let test_schur_pipeline_booked_per_phase () =
  (* The Schur pipeline's rounds are one analytic charge per later phase,
     the same in either mode: log2 k squarings of the 2n x 2n auxiliary
     chain, then the n x n product that normalizes it. *)
  let g = Gen.lollipop ~clique:5 ~tail:4 in
  let n = Graph.n g in
  List.iter
    (fun (name, schur) ->
      let config = { default with schur } in
      let plan = Sampler.prepare ~config g in
      let net = Net.create ~n in
      let r = Sampler.draw plan net (Prng.create ~seed:31) in
      let booked label =
        match List.find_opt (fun (l, _, _, _) -> l = label) (Net.ledger net) with
        | Some (_, rounds, _, _) -> rounds
        | None -> 0.0
      in
      let later = float_of_int (r.Sampler.phases - 1) in
      let squarings =
        Cc_walks.Topdown.levels_for ~len:(Plan.schur_k (Sampler.plan_state plan))
      in
      let powering =
        later *. float_of_int squarings
        *. Matmul.mul_cost net config.backend ~dim:(2 * n)
      and normalize = later *. Matmul.mul_cost net config.backend ~dim:n in
      Alcotest.(check bool) (name ^ ": later phases") true (later > 0.0);
      Alcotest.(check (float (1e-9 *. powering)))
        (name ^ ": shortcut powering") powering (booked "shortcut powering");
      Alcotest.(check (float (1e-9 *. normalize)))
        (name ^ ": schur normalize") normalize (booked "schur normalize"))
    [ ("exact solve", Sampler.Exact_solve); ("powering", Sampler.Powering) ]

(* --- Phase_walk vs its reference (test/sampler/reference.ml) --- *)

(* What one phase walk shows: its walk and stats (or its failure), every
   event it books, and the PRNG's next draws. *)
let observe_walk run ~machines ~seed =
  let net = Net.create ~n:machines in
  let events = ref [] in
  Net.add_sink net (fun (e : Cc_obs.Recorder.record) ->
      events :=
        ( e.kind,
          e.label,
          e.rounds,
          (e.messages, e.words, e.max_load),
          Array.to_list e.sent,
          Array.to_list e.recv )
        :: !events);
  let prng = Prng.create ~seed in
  let result =
    match run net prng with
    | walk, (stats : Phase_walk.stats) -> Ok (walk, stats)
    | exception Failure msg -> Error msg
  in
  (result, List.rev !events, Array.init 4 (fun _ -> Prng.int prng (1 lsl 30)))

let families =
  Cc_graph.Gen.
    [| Path; Cycle; Complete; Star; Grid; Binary_tree; Lollipop; Barbell; Er_log 2.0 |]

(* One random instance of [Phase_walk.run]: a graph family, weighted or
   not, lazy or not; rho = n half the time, so that walks run to cover,
   else anywhere in [2, n]; a target length from 2 to 4096; either
   matching mode; exact or rounded power tables; a clique of 2 to n + 2
   machines hosting the vertices round robin from an offset; and any
   start. Both implementations run it on the same table. *)
let same_walk_as_reference (n, seed) =
  let prng = Prng.create ~seed in
  let g =
    Cc_graph.Gen.build prng
      families.(Prng.int prng (Array.length families))
      ~n
  in
  let g =
    if Prng.bool prng then Cc_graph.Gen.random_weights prng g ~max_weight:9
    else g
  in
  let n = Graph.n g in
  let trans = Graph.transition_matrix g in
  let trans = if Prng.bool prng then Mat.half_lazy trans else trans in
  let rho = if Prng.bool prng then n else 2 + Prng.int prng (n - 1) in
  let target_len = [| 2; 3; 16; 64; 256; 1024; 4096 |].(Prng.int prng 7) in
  let matching =
    if Prng.int prng 4 = 0 then Phase_walk.Magical else Phase_walk.Resample
  in
  let bits = [| None; None; None; Some 40; Some 12; Some 3 |].(Prng.int prng 6) in
  let machines = 2 + Prng.int prng (n + 1) in
  let offset = Prng.int prng machines in
  let machine_of i = (i + offset) mod machines in
  let start = Prng.int prng n in
  let table = table ?bits trans ~target_len in
  let walk_seed = Prng.int prng 1_000_000 in
  let ours =
    observe_walk ~machines ~seed:walk_seed (fun net prng ->
        Phase_walk.run net prng ~backend:(Matmul.charged ()) ~table
          ~machine_of ~start ~rho ~target_len ~matching)
  and theirs =
    observe_walk ~machines ~seed:walk_seed (fun net prng ->
        Reference.run net prng ~backend:(Matmul.charged ()) ~table
          ~machine_of ~start ~rho ~target_len ~matching)
  in
  ours = theirs

(* At a table's mixed level m, every pair class's Formula 1 law
   T[p,j]·T[j,q] / sum is within delta_t in total variation of the shared
   law T[0,j] / sum, where delta_t <= 1e-10 is the table's largest relative
   spread |T[r,j] - T[0,j]| / T[0,j] (DESIGN.md §17; 1e-13 absorbs the
   rounding of this check). Every mixed level reads T itself. *)
let mixed_laws_within_bound (n, seed) =
  let prng = Prng.create ~seed in
  let g =
    Cc_graph.Gen.build prng
      families.(Prng.int prng (Array.length families))
      ~n
  in
  let g =
    if Prng.bool prng then Cc_graph.Gen.random_weights prng g ~max_weight:1000
    else g
  in
  let t = table (Mat.half_lazy (Graph.transition_matrix g)) ~target_len:(1 lsl 20) in
  t.mixed >= Array.length t.powers
  ||
  let m = t.powers.(t.mixed) in
  let d = Mat.rows m in
  let spread = ref 0.0 in
  for r = 1 to d - 1 do
    for j = 0 to d - 1 do
      let x0 = Mat.get m 0 j in
      if x0 > 0.0 then
        spread := Float.max !spread (Float.abs (Mat.get m r j -. x0) /. x0)
    done
  done;
  let normalized w =
    let total = Array.fold_left ( +. ) 0.0 w in
    Array.map (fun x -> x /. total) w
  in
  let shared = normalized (Mat.row m 0) and worst = ref 0.0 in
  for p = 0 to d - 1 do
    for q = 0 to d - 1 do
      let law = normalized (Array.init d (fun j -> Mat.get m p j *. Mat.get m j q)) in
      let tv = ref 0.0 in
      Array.iteri (fun j x -> tv := !tv +. Float.abs (x -. shared.(j))) law;
      worst := Float.max !worst (0.5 *. !tv)
    done
  done;
  !spread <= 1e-10 && !worst <= !spread +. 1e-13

(* --- qcheck --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"phase walk = its reference: walk, stats, events, prng"
      ~count:300
      (make
         ~print:Print.(pair int int)
         Gen.(pair (int_range 4 14) (int_range 0 1_000_000)))
      same_walk_as_reference;
    Test.make ~name:"mixed levels: every Formula 1 law within the bound"
      ~count:100
      (make
         ~print:Print.(pair int int)
         Gen.(pair (int_range 4 14) (int_range 0 1_000_000)))
      mixed_laws_within_bound;
    Test.make ~name:"sampler returns spanning trees on random graphs"
      ~count:20
      (make Gen.(pair (int_range 4 12) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let net = Net.create ~n in
        let r = Sampler.sample net prng g in
        Tree.is_spanning_tree g r.Sampler.tree);
    Test.make ~name:"phase walk has at most rho distinct vertices" ~count:20
      (make Gen.(pair (int_range 4 10) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:2 in
        let rho = max 2 (n / 2) in
        let w = phase_walk_once g ~rho ~target_len:512 prng in
        Shared.distinct_count w <= rho);
    Test.make ~name:"walk_total >= n - 1" ~count:20
      (make Gen.(pair (int_range 4 10) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:2 in
        let net = Net.create ~n in
        let r = Sampler.sample net prng g in
        r.Sampler.walk_total >= n - 1);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_sampler"
    [
      ( "phase_walk",
        [
          Alcotest.test_case "valid walk" `Quick test_phase_walk_is_valid_walk;
          Alcotest.test_case "ends fresh" `Quick test_phase_walk_ends_at_fresh_vertex;
          Alcotest.test_case "fallback to mcmc" `Quick test_phase_walk_mcmc_fallback;
          Alcotest.test_case "tau law vs sequential" `Slow test_phase_walk_tau_matches_sequential;
          Alcotest.test_case "magical = resampled" `Slow test_phase_walk_magical_equals_resampled_in_law;
        ] );
      ( "structure",
        [
          Alcotest.test_case "spanning trees" `Quick test_sampler_produces_spanning_trees;
          Alcotest.test_case "input validation" `Quick test_sampler_rejects_bad_input;
          Alcotest.test_case "phase count" `Quick test_sampler_phase_count_scales_with_rho;
          Alcotest.test_case "plan constants" `Quick test_plan_constants;
          Alcotest.test_case "mixed levels" `Quick test_mixed_levels;
          Alcotest.test_case "determinism" `Quick test_sampler_deterministic_given_seed;
          Alcotest.test_case "plan draw = sample" `Quick test_plan_draw_matches_sample;
          Alcotest.test_case "plan reuse skips compute" `Quick test_plan_reuse_skips_compute;
          Alcotest.test_case "plan reuse across distinct seeds" `Quick
            test_plan_reuse_distinct_seeds;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "sequential plan" `Quick test_sequential_plan_matches_sample;
          Alcotest.test_case "one budget for both plans" `Quick
            test_one_budget_for_both_plans;
          Alcotest.test_case "phase metrics for both samplers" `Quick
            test_phase_metrics_for_both_samplers;
          Alcotest.test_case "wide real weights" `Quick test_wide_real_weights;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "K4 uniform" `Slow test_uniform_k4;
          Alcotest.test_case "C4+chord uniform" `Slow test_uniform_cycle_chord;
          Alcotest.test_case "grid 2x3 uniform" `Slow test_uniform_grid_2x3;
          Alcotest.test_case "K4 magical" `Slow test_uniform_k4_magical;
          Alcotest.test_case "K4 powering Schur" `Slow test_uniform_k4_powering_schur;
          Alcotest.test_case "K4 fixed point" `Slow test_uniform_k4_fixed_point;
          Alcotest.test_case "K4 non-lazy" `Slow test_uniform_k4_nonlazy;
          Alcotest.test_case "weighted triangle" `Slow test_uniform_weighted_triangle;
          Alcotest.test_case "coarse bits valid" `Quick test_coarse_bits_degrade_gracefully;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "phase walk validation" `Quick test_phase_walk_argument_validation;
          Alcotest.test_case "phase walk stats" `Quick test_phase_walk_stats_sanity;
          Alcotest.test_case "weighted marginals" `Slow test_weighted_marginals_match_leverage;
        ] );
      ( "faults",
        [
          Alcotest.test_case "heals drops" `Quick test_faulty_sampler_heals_drops;
          Alcotest.test_case "heals corruption" `Quick test_faulty_sampler_heals_corruption;
          Alcotest.test_case "crash degrades to sequential" `Quick test_crash_degrades_to_sequential;
          Alcotest.test_case "fault-seed determinism" `Quick test_faulty_sampler_deterministic;
          Alcotest.test_case "K4 uniform under faults" `Slow test_faulty_uniform_k4;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "spanning trees" `Quick test_sequential_produces_spanning_trees;
          Alcotest.test_case "K4 uniform" `Slow test_sequential_uniform_k4;
          Alcotest.test_case "C4+chord uniform" `Slow test_sequential_uniform_cycle_chord;
          Alcotest.test_case "marginals vs leverage" `Slow test_sequential_marginals_match_leverage;
          Alcotest.test_case "distributed marginals" `Slow test_distributed_marginals_match_leverage;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "sublinear vs naive" `Slow test_rounds_scale_sublinearly_in_theory_mode;
          Alcotest.test_case "ledger components" `Quick test_ledger_has_expected_components;
          Alcotest.test_case "schur pipeline booked per phase" `Quick
            test_schur_pipeline_booked_per_phase;
        ] );
      ("properties", qsuite);
    ]
