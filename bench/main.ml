(* Benchmark harness: regenerates every quantitative claim of the paper.

   The paper (PODC 2025) is a theory contribution with no experimental
   tables; its "evaluation" is the set of claimed round complexities and two
   worked figures. Each experiment below measures the corresponding claim on
   the Congested Clique simulator and prints a table; EXPERIMENTS.md records
   the paper-vs-measured comparison.

     E1  Theorem 1 / Lemma 5: doubling-walk rounds, two regimes
     E2  Lemma 4: receiver load under k-wise hashing vs the unbalanced BCX
     E3  Theorem 2: sublinear sampler rounds vs n (worst-case lollipop)
     E4  Corollaries 1-2: trees on ER / regular expanders in few rounds
     E5  Theorems 3-5: TV distance of sampled trees to the exact distribution
     E6  Lemma 3: fixed-point matrix powers, subtractive error vs budget
     E7  Corollaries 3-4: shortcut/Schur powering error decay
     E8  Figure 2: the worked Schur/shortcut example, checked entrywise
     E9  Cover-time premises per graph family
     E10 Section 1.1: PageRank from polylog walks
     F1  Figure 1: the midpoint request/multiset/matching pipeline, narrated
     F2  fault injection: recovery overhead vs message-drop probability
     D1  determinism: same-seed runs produce byte-identical recorder digests
     Q1  audit plane: samples-to-verdict per sampler + biased-fixture power
     S1  ccserve: plan-cache throughput, cold vs warm, 1 vs 4 clients
     R1  observability overhead: served draws bare, recorded and traced
     M1  plan memory: live heap after 1 and 20 draws on one plan

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- -e E3        -- one experiment
     dune exec bench/main.exe -- --fast       -- smaller ladders
     dune exec bench/main.exe -- --micro      -- bechamel microbenchmarks too
     dune exec bench/main.exe -- --json F     -- also write the rows to F
                                                (see Report; schema cc-bench/4) *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Walk = Cc_walks.Walk
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Matmul = Cc_clique.Matmul
module Mat = Cc_linalg.Mat
module Fixed = Cc_linalg.Fixed
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Stats = Cc_util.Stats
module Table = Cc_util.Table
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut
module Doubling = Cc_doubling.Doubling
module Sampler = Cc_sampler.Sampler
module Phase_walk = Cc_sampler.Phase_walk
module Placement = Cc_matching.Placement
module Audit = Cc_audit.Audit
module Serve = Cc_serve.Server
module Serve_protocol = Cc_serve.Protocol

let fast = ref false
let selected : string list ref = ref []
let micro = ref false

let wants id = !selected = [] || List.mem id !selected

let section id title =
  Report.set_title ~id ~title;
  Printf.printf "\n======================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "======================================================\n%!"

(* ---------------------------------------------------------------- E1 --- *)

let e1 () =
  section "E1" "Theorem 1: doubling-walk rounds across both regimes";
  let ns = if !fast then [ 64 ] else [ 64; 128; 256 ] in
  let table =
    Table.create
      ~title:
        "rounds vs tau (bound: O(log tau) for tau = O(n/log n); \
         O((tau/n) log tau log n) above)"
      ~columns:[ "n"; "tau"; "regime"; "rounds"; "bound"; "rounds/bound" ]
  in
  List.iter
    (fun n ->
      let prng = Prng.create ~seed:1 in
      let g = Gen.cycle n in
      let taus =
        List.filter (fun t -> t <= 16 * n) [ 4; 16; 64; 256; 1024; 4096 ]
      in
      List.iter
        (fun tau ->
          let net = Net.create ~n in
          Report.attach_profile ~id:"E1" net;
          let r = Doubling.run net prng g ~tau ~scheme:(Doubling.default_scheme ~n) in
          let log_n = Float.log2 (float_of_int n) in
          let log_tau = Float.max 1.0 (Float.log2 (float_of_int tau)) in
          let low_regime = float_of_int tau < float_of_int n /. log_n in
          let bound =
            if low_regime then log_tau
            else float_of_int tau /. float_of_int n *. log_tau *. log_n
          in
          Report.record ~id:"E1"
            ~params:
              [
                ("n", Report.int n);
                ("tau", Report.int tau);
                ( "regime",
                  Report.str (if low_regime then "log tau" else "tau/n polylog")
                );
              ]
            ~bound r.Doubling.rounds;
          Table.add_row table
            [
              Table.cell_int n;
              Table.cell_int tau;
              (if low_regime then "log tau" else "tau/n polylog");
              Table.cell_float ~decimals:0 r.Doubling.rounds;
              Table.cell_float ~decimals:1 bound;
              Table.cell_float ~decimals:2 (r.Doubling.rounds /. bound);
            ])
        taus)
    ns;
  Table.print table;
  print_endline
    "Expected shape: rounds/bound roughly constant within each regime, with\n\
     the crossover near tau = n / log n."

(* ---------------------------------------------------------------- E2 --- *)

let e2 () =
  section "E2" "Lemma 4: receiver load, k-wise hashing vs unbalanced BCX";
  let n = if !fast then 32 else 64 in
  let tau = 4 * n in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "star graph, n=%d, tau=%d: max tuples received per machine, per iteration"
           n tau)
      ~columns:
        [ "iteration"; "k"; "load-balanced"; "unbalanced"; "Lemma 4 bound (c=1)" ]
  in
  let g = Gen.star n in
  let run scheme seed =
    let net = Net.create ~n in
    Report.attach_profile ~id:"E2" net;
    let prng = Prng.create ~seed in
    (Doubling.run net prng g ~tau ~scheme).Doubling.max_tuples_received
  in
  let lb = run (Doubling.default_scheme ~n) 2 in
  let ub = run Doubling.Unbalanced 2 in
  let rec pow2 e = if e = 0 then 1 else 2 * pow2 (e - 1) in
  let iterations = Array.length lb in
  let k0 =
    (* initial k = next power of two >= tau *)
    let rec go p = if p >= tau then p else go (2 * p) in
    go 1
  in
  ignore pow2;
  Array.iteri
    (fun i load_lb ->
      let k = k0 / (1 lsl i) in
      Report.record ~id:"E2"
        ~params:
          [
            ("n", Report.int n);
            ("iteration", Report.int (i + 1));
            ("k", Report.int k);
          ]
        ~bound:(Doubling.lemma4_bound ~n ~k ~c:1.0)
        ~extra:[ ("unbalanced", Report.int ub.(i)) ]
        (float_of_int load_lb);
      Table.add_row table
        [
          Table.cell_int (i + 1);
          Table.cell_int k;
          Table.cell_int load_lb;
          Table.cell_int ub.(i);
          Table.cell_float ~decimals:0 (Doubling.lemma4_bound ~n ~k ~c:1.0);
        ])
    lb;
  ignore iterations;
  Table.print table;
  print_endline
    "Expected shape: the unbalanced scheme funnels ~half of all walks into\n\
     the star center (load ~ k*n/2 early on) while hashing keeps every\n\
     machine under the 16ck log n bound."

(* ---------------------------------------------------------------- E3 --- *)

let e3 () =
  section "E3" "Theorem 2: sublinear sampler rounds vs n (lollipop worst case)";
  let ns = if !fast then [ 16; 24; 32; 48 ] else [ 16; 24; 32; 48; 64; 96; 128 ] in
  let table =
    Table.create
      ~title:
        "lollipop(n): measured rounds of the full sampler vs the naive\n\
         step-by-step distributed Aldous-Broder (1 round per walk step)"
      ~columns:
        [ "n"; "phases"; "rounds"; "naive rounds"; "speedup";
          "rounds/(n^0.658 log^2 n)" ]
  in
  let xs = ref [] and ys = ref [] and naives = ref [] in
  List.iter
    (fun n ->
      let g = Gen.lollipop ~clique:(n / 2) ~tail:(n - (n / 2)) in
      let prng = Prng.create ~seed:3 in
      let net = Net.create ~n in
      Report.attach_profile ~id:"E3" net;
      let r = Sampler.sample net prng g in
      (* The baseline draws from a stream of its own, so a change that moves
         the sampler's draws leaves it where it was. *)
      let naive =
        Walk.mean_cover_time g (Prng.create ~seed:4)
          ~trials:(if n <= 48 then 20 else 5)
      in
      let nf = float_of_int n in
      let normal = (nf ** 0.658) *. (Float.log2 nf ** 2.0) in
      xs := nf :: !xs;
      ys := r.Sampler.rounds :: !ys;
      naives := naive :: !naives;
      Report.record ~id:"E3"
        ~params:[ ("n", Report.int n); ("family", Report.str "lollipop") ]
        ~bound:normal
        ~extra:
          [
            ("phases", Report.int r.Sampler.phases);
            ("naive_rounds", Report.flt naive);
          ]
        r.Sampler.rounds;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int r.Sampler.phases;
          Table.cell_float ~decimals:0 r.Sampler.rounds;
          Table.cell_float ~decimals:0 naive;
          Table.cell_float ~decimals:2 (naive /. r.Sampler.rounds);
          Table.cell_float ~decimals:2 (r.Sampler.rounds /. normal);
        ])
    ns;
  Table.print table;
  let xs = Array.of_list (List.rev !xs) in
  let ys = Array.of_list (List.rev !ys) in
  let exp_meas, _ = Stats.fit_power xs ys in
  let exp_norm, _ =
    Stats.fit_power xs
      (Array.mapi (fun i y -> y /. (Float.log2 xs.(i) ** 2.0)) ys)
  in
  let exp_naive, _ = Stats.fit_power xs (Array.of_list (List.rev !naives)) in
  Report.record ~id:"E3"
    ~params:[ ("metric", Report.str "fitted exponent, rounds/log^2 n") ]
    ~bound:0.658 exp_norm;
  Report.record ~id:"E3"
    ~params:[ ("metric", Report.str "fitted exponent, naive cover rounds") ]
    ~extra:[ ("raw_sampler_exponent", Report.flt exp_meas) ]
    exp_naive;
  Printf.printf
    "fitted exponents: sampler rounds ~ n^%.2f raw, ~ n^%.2f after dividing\n\
     out log^2 n (paper: n^0.658 polylog); naive cover-time rounds ~ n^%.2f\n\
     (paper: n^3/8 for the lollipop).\n"
    exp_meas exp_norm exp_naive;
  print_endline
    "Expected shape: sampler exponent far below the naive exponent; the\n\
     crossover (speedup > 1) appears by n ~ 32 and widens."

(* ---------------------------------------------------------------- E4 --- *)

let e4 () =
  section "E4" "Corollaries 1-2: trees on small-cover-time graphs via doubling";
  let ns = if !fast then [ 32; 64 ] else [ 32; 64; 128; 256 ] in
  let table =
    Table.create
      ~title:
        "rounds to sample one spanning tree via doubling (Corollary 1);\n\
         polylog target: rounds / log^3 n bounded"
      ~columns:
        [ "family"; "n"; "walk length"; "rounds"; "log^3 n"; "rounds/log^3 n" ]
  in
  let families =
    [ ("ER(3 ln n / n)", `Er); ("6-regular", `Reg) ]
  in
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun n ->
          let prng = Prng.create ~seed:4 in
          let g =
            match fam with
            | `Er ->
                let p = Float.min 1.0 (3.0 *. Float.log (float_of_int n) /. float_of_int n) in
                Gen.erdos_renyi_connected prng ~n ~p
            | `Reg -> Gen.random_regular prng ~n ~d:6
          in
          let net = Net.create ~n in
          Report.attach_profile ~id:"E4" net;
          let _, walk_len = Doubling.sample_tree net prng g ~tau0:(2 * n) in
          let l3 = Float.log2 (float_of_int n) ** 3.0 in
          Report.record ~id:"E4"
            ~params:[ ("family", Report.str name); ("n", Report.int n) ]
            ~bound:l3
            ~extra:[ ("walk_length", Report.int walk_len) ]
            (Net.rounds net);
          Table.add_row table
            [
              name;
              Table.cell_int n;
              Table.cell_int walk_len;
              Table.cell_float ~decimals:0 (Net.rounds net);
              Table.cell_float ~decimals:0 l3;
              Table.cell_float ~decimals:2 (Net.rounds net /. l3);
            ])
        ns)
    families;
  Table.print table;
  print_endline
    "Expected shape: rounds/log^3 n stays bounded (constant-ish) as n grows\n\
     — Corollary 2's polylog round complexity, driven by the O(n log n)\n\
     cover time of these families."

(* ---------------------------------------------------------------- E5 --- *)

let e5 () =
  section "E5" "Theorems 3-5: TV distance of sampled trees to the exact law";
  let trials = if !fast then 3000 else 8000 in
  let graphs =
    [
      ("K4", Gen.complete 4);
      ("C4+chord",
       Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ]);
      ("grid 2x3", Gen.grid ~rows:2 ~cols:3);
      ("K5 - edge",
       Graph.of_unweighted_edges ~n:5
         (List.filter (fun (u, v) -> not (u = 0 && v = 1))
            (List.concat_map (fun u -> List.init (4 - u) (fun k -> (u, u + k + 1)))
               [ 0; 1; 2; 3 ])));
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "empirical TV distance to the exact spanning-tree distribution \
            (%d samples; floor = 3x CLT noise)"
           trials)
      ~columns:[ "graph"; "#trees"; "sampler"; "TV"; "noise floor" ]
  in
  let samplers =
    [
      ("CC sampler", fun net prng g -> (Sampler.sample net prng g).Sampler.tree);
      ("CC magical",
       fun net prng g ->
         (Sampler.sample
            ~config:{ Sampler.default_config with matching = Phase_walk.Magical }
            net prng g).Sampler.tree);
      ("CC 40-bit",
       fun net prng g ->
         (Sampler.sample
            ~config:{ Sampler.default_config with bits = Some 40 }
            net prng g).Sampler.tree);
      ("Aldous-Broder", fun _ prng g -> Cc_walks.Aldous_broder.sample_tree g prng);
      ("Wilson", fun _ prng g -> Cc_walks.Wilson.sample_tree g prng);
    ]
  in
  List.iter
    (fun (gname, g) ->
      let n = Graph.n g in
      let trees, lookup = Tree.index g in
      let target = Tree.weighted_distribution g trees in
      let support = Array.length trees in
      List.iter
        (fun (sname, sampler) ->
          let prng = Prng.create ~seed:5 in
          let net = Net.create ~n in
          Report.attach_profile ~id:"E5" net;
          let counts = Array.make support 0 in
          for _ = 1 to trials do
            let t = sampler net prng g in
            counts.(lookup t) <- counts.(lookup t) + 1
          done;
          let tv = Dist.tv_counts ~counts target in
          let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support in
          Report.record ~id:"E5"
            ~params:
              [
                ("graph", Report.str gname);
                ("sampler", Report.str sname);
                ("trials", Report.int trials);
                ("support", Report.int support);
              ]
            ~bound:floor tv;
          Table.add_row table
            [
              gname;
              Table.cell_int support;
              sname;
              Table.cell_float ~decimals:4 tv;
              Table.cell_float ~decimals:4 floor;
            ])
        samplers)
    graphs;
  Table.print table;
  print_endline
    "Expected shape: every sampler's TV sits at the sampling-noise floor —\n\
     the distributed pipeline (multiset compression + matching resampling +\n\
     Schur phases) is statistically indistinguishable from the exact\n\
     uniform law, matching the 1/n^c TV guarantee of Theorem 5.\n\
     (The paper's distinguishing power at these sample sizes is ~the floor.)"

(* ---------------------------------------------------------------- E6 --- *)

let e6 () =
  section "E6" "Lemma 3: subtractive error of truncated matrix powers";
  let n = if !fast then 12 else 24 in
  let prng = Prng.create ~seed:6 in
  let g = Gen.erdos_renyi_connected prng ~n ~p:0.35 in
  let p = Graph.transition_matrix g in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "ER graph n=%d: max subtractive error of round-after-squaring \
            powers vs the Lemma 3 budget"
           n)
      ~columns:[ "bits"; "k"; "measured error"; "Lemma 3 budget"; "one-sided?" ]
  in
  List.iter
    (fun bits ->
      List.iter
        (fun k ->
          let exact = Mat.power p k in
          let approx = Fixed.rounded_power ~bits p k in
          let err = Mat.max_subtractive_error ~exact ~approx in
          let overshoot = Mat.max_subtractive_error ~exact:approx ~approx:exact in
          Report.record ~id:"E6"
            ~params:[ ("bits", Report.int bits); ("k", Report.int k) ]
            ~bound:(Fixed.lemma3_error_bound ~n ~k ~bits)
            ~extra:
              [ ("one_sided", Cc_obs.Json.Bool (overshoot <= 1e-12)) ]
            err;
          Table.add_row table
            [
              Table.cell_int bits;
              Table.cell_int k;
              Table.cell_sci err;
              Table.cell_sci (Fixed.lemma3_error_bound ~n ~k ~bits);
              (if overshoot <= 1e-12 then "yes" else "NO");
            ])
        [ 2; 8; 64; 512 ])
    [ 16; 24; 40 ];
  Table.print table;
  Printf.printf
    "bits sufficient for beta = 1e-6 at k = 512 per Lemma 3's recurrence: %d\n"
    (Fixed.lemma3_bits ~n ~k:512 ~beta:1e-6);
  print_endline
    "Expected shape: measured error always below the budget and always\n\
     one-sided (truncation under-approximates); error grows with k and\n\
     shrinks by ~2^-bits."

(* ---------------------------------------------------------------- E7 --- *)

let e7 () =
  section "E7" "Corollaries 3-4: shortcut/Schur powering error decay";
  let n = if !fast then 12 else 16 in
  let prng = Prng.create ~seed:7 in
  let g = Gen.random_connected prng ~n ~extra_edges:n in
  let s = Prng.subset prng ~size:(n / 2) (Array.init n (fun i -> i)) in
  Array.sort compare s;
  let in_s = Schur.members ~n ~s in
  let q_exact = Shortcut.exact g ~in_s in
  let schur_exact = Schur.transition_exact g ~s in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "random graph n=%d, |S|=%d: entrywise error of k-step powering" n
           (n / 2))
      ~columns:[ "k"; "shortcut max err"; "schur max err" ]
  in
  List.iter
    (fun k ->
      let q = Shortcut.approx g ~in_s ~k in
      let sc = Schur.approx g ~s ~k in
      Report.record ~id:"E7"
        ~params:[ ("n", Report.int n); ("k", Report.int k) ]
        ~extra:[ ("schur_max_err", Report.flt (Mat.max_abs_diff sc schur_exact)) ]
        (Mat.max_abs_diff q q_exact);
      Table.add_row table
        [
          Table.cell_int k;
          Table.cell_sci (Mat.max_abs_diff q q_exact);
          Table.cell_sci (Mat.max_abs_diff sc schur_exact);
        ])
    [ 4; 16; 64; 256; 1024; 4096 ];
  Table.print table;
  print_endline
    "Expected shape: geometric decay with k as the auxiliary chain absorbs\n\
     — choosing k = O(n^3 log(1/delta)) reaches any inverse-polynomial\n\
     target, which is what the sampler's later phases rely on."

(* ---------------------------------------------------------------- E8 --- *)

let e8 () =
  section "E8" "Figure 2: the worked Schur/shortcut example";
  let g = Gen.figure2 () in
  let s = [| 0; 1; 3 |] in
  let in_s = Schur.members ~n:4 ~s in
  let schur_t = Schur.transition_exact g ~s in
  let q = Shortcut.exact g ~in_s in
  Format.printf "graph: star A-C, B-C, D-C (A=0,B=1,C=2,D=3), S = {A,B,D}@.@.";
  Format.printf "SCHUR(G,S) transitions (paper: uniform 1/2 off-diagonal):@.%a@."
    Mat.pp schur_t;
  Format.printf "SHORTCUT(G,S) transitions (paper: all mass on C):@.%a@." Mat.pp q;
  let ok = ref true in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let expected = if i = j then 0.0 else 0.5 in
      if Float.abs (Mat.get schur_t i j -. expected) > 1e-9 then ok := false
    done
  done;
  for u = 0 to 3 do
    for v = 0 to 3 do
      let expected = if v = 2 then 1.0 else 0.0 in
      if Float.abs (Mat.get q u v -. expected) > 1e-9 then ok := false
    done
  done;
  Report.record ~id:"E8"
    ~params:[ ("check", Report.str "Figure 2 entrywise match") ]
    ~bound:1.0
    (if !ok then 1.0 else 0.0);
  Printf.printf "entrywise match with Figure 2: %s\n" (if !ok then "PASS" else "FAIL")

(* ---------------------------------------------------------------- E9 --- *)

let e9 () =
  section "E9" "Cover-time premises per graph family";
  let ns = if !fast then [ 16; 32 ] else [ 16; 32; 64 ] in
  let trials = if !fast then 10 else 30 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "mean cover time (%d trials) normalized by the claimed bound" trials)
      ~columns:
        [ "family"; "claimed"; "n"; "mean cover"; "cover/claim"; "lazy gap";
          "mean hitting" ]
  in
  let families =
    [
      ("path", "n^2", (fun _ n -> Gen.path n), fun n -> float_of_int (n * n));
      ("complete", "n ln n",
       (fun _ n -> Gen.complete n),
       fun n -> float_of_int n *. Float.log (float_of_int n));
      ("lollipop", "n^3/8",
       (fun _ n -> Gen.lollipop ~clique:(n / 2) ~tail:(n - (n / 2))),
       fun n -> float_of_int (n * n * n) /. 8.0);
      ("ER(3 ln n/n)", "n ln n",
       (fun prng n ->
         let p = Float.min 1.0 (3.0 *. Float.log (float_of_int n) /. float_of_int n) in
         Gen.erdos_renyi_connected prng ~n ~p),
       fun n -> float_of_int n *. Float.log (float_of_int n));
      ("6-regular", "n ln n",
       (fun prng n -> Gen.random_regular prng ~n ~d:6),
       fun n -> float_of_int n *. Float.log (float_of_int n));
    ]
  in
  List.iter
    (fun (name, claim, make, bound) ->
      List.iter
        (fun n ->
          let prng = Prng.create ~seed:9 in
          let g = make prng n in
          let cover = Walk.mean_cover_time g prng ~trials in
          Report.record ~id:"E9"
            ~params:
              [
                ("family", Report.str name);
                ("claimed", Report.str claim);
                ("n", Report.int n);
              ]
            ~bound:(bound n) cover;
          Table.add_row table
            [
              name; claim; Table.cell_int n;
              Table.cell_float ~decimals:0 cover;
              Table.cell_float ~decimals:2 (cover /. bound n);
              Table.cell_float ~decimals:4 (Cc_graph.Spectral.gap ~iters:2000 g);
              Table.cell_float ~decimals:0 (Cc_walks.Hitting.mean_hitting_time g);
            ])
        ns)
    families;
  Table.print table;
  print_endline
    "Expected shape: cover/claim roughly constant per family — the Theta(mn)\n\
     worst case (lollipop) motivating Theorem 2, and the O(n log n) families\n\
     that make Corollary 2's polylog sampling possible. The lazy spectral\n\
     gap explains the split: constant-ish for expanders, polynomially small\n\
     for paths/lollipops; mean hitting time is Wilson's runtime scale."

(* --------------------------------------------------------------- E10 --- *)

let e10 () =
  section "E10" "PageRank from polylog-length doubling walks";
  let n = if !fast then 32 else 64 in
  let prng = Prng.create ~seed:10 in
  let g =
    Gen.erdos_renyi_connected prng ~n
      ~p:(Float.min 1.0 (4.0 *. Float.log (float_of_int n) /. float_of_int n))
  in
  let epsilon = 0.15 in
  let exact = Doubling.pagerank_exact g ~epsilon in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "ER graph n=%d, epsilon=%.2f: estimate accuracy vs budget"
           n epsilon)
      ~columns:[ "walks/vertex"; "rounds"; "L1 error"; "max abs error" ]
  in
  List.iter
    (fun walks ->
      let net = Net.create ~n in
      Report.attach_profile ~id:"E10" net;
      let est = Doubling.pagerank net prng g ~walks_per_node:walks ~epsilon in
      let l1 =
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun i x -> Float.abs (x -. exact.(i))) est)
      in
      let linf =
        Array.fold_left Float.max 0.0
          (Array.mapi (fun i x -> Float.abs (x -. exact.(i))) est)
      in
      Report.record ~id:"E10"
        ~params:[ ("n", Report.int n); ("walks_per_vertex", Report.int walks) ]
        ~extra:
          [
            ("rounds", Report.flt (Net.rounds net));
            ("max_abs_error", Report.flt linf);
          ]
        l1;
      Table.add_row table
        [
          Table.cell_int walks;
          Table.cell_float ~decimals:0 (Net.rounds net);
          Table.cell_float ~decimals:4 l1;
          Table.cell_float ~decimals:5 linf;
        ])
    [ 8; 32; 128 ];
  Table.print table;
  print_endline
    "Expected shape: L1 error shrinks like 1/sqrt(walks); rounds grow\n\
     mildly (walk length is O(log n / epsilon), built in O(log) iterations)."

(* ---------------------------------------------------------------- F1 --- *)

let f1 () =
  section "F1" "Figure 1: midpoint request / multiset / matching pipeline";
  (* Mirror the figure: a partial walk over vertices {1,2,3} of K4 whose
     consecutive pairs repeat, one level of midpoint filling narrated. *)
  let g = Gen.complete 4 in
  let p = Graph.transition_matrix g in
  let powers = Mat.power_table p ~max_exp:2 in
  let walk = [| 1; 3; 2; 1; 2; 1; 3 |] in
  let gap_exp = 2 in
  Printf.printf "partial walk W_i (entries %d apart): %s\n" (1 lsl gap_exp)
    (String.concat " " (Array.to_list (Array.map string_of_int walk)));
  (* Count (start,end) pairs as machine M does. *)
  let pairs = Hashtbl.create 8 in
  for i = 0 to Array.length walk - 2 do
    let key = (walk.(i), walk.(i + 1)) in
    Hashtbl.replace pairs key (1 + Option.value ~default:0 (Hashtbl.find_opt pairs key))
  done;
  Printf.printf "\ndistinct (start,end) pairs and counts sent to machines M_pq:\n";
  Hashtbl.iter (fun (p', q) c -> Printf.printf "  M_(%d,%d): %d midpoints\n" p' q c) pairs;
  let prng = Prng.create ~seed:11 in
  (* Per-pair machines sample midpoint sequences from Formula 1. *)
  let sampled =
    Hashtbl.fold
      (fun (p', q) c acc ->
        let w = Cc_walks.Topdown.midpoint_weights powers ~gap_exp ~a:p' ~b:q in
        let mids = List.init c (fun _ -> Dist.sample_weights w prng) in
        ((p', q), mids) :: acc)
      pairs []
  in
  Printf.printf "\nsampled midpoint sequences Pi_pq (kept at the pair machines):\n";
  List.iter
    (fun ((p', q), mids) ->
      Printf.printf "  Pi_(%d,%d) = %s\n" p' q
        (String.concat " " (List.map string_of_int mids)))
    sampled;
  (* The leader only receives the multiset. *)
  let multiset = List.concat_map snd sampled in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun v -> Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v)))
    multiset;
  Printf.printf "\nmultiset received by leader M (positions forgotten): { ";
  Hashtbl.iter (fun v c -> Printf.printf "%d x%d  " v c) tally;
  Printf.printf "}\n";
  (* Leader resamples the placement as a weighted perfect matching. *)
  let positions =
    Array.init (Array.length walk - 1) (fun i -> (walk.(i), walk.(i + 1)))
  in
  let identities = Array.of_list multiset in
  let instance =
    Placement.build ~identities ~positions ~weight:(fun ~v ~p:p' ~q ->
        Mat.get powers.(gap_exp - 1) p' v *. Mat.get powers.(gap_exp - 1) v q)
  in
  let sigma = Placement.sample_exact prng instance in
  let filled = Array.make ((2 * Array.length walk) - 1) 0 in
  Array.iteri (fun i v -> filled.(2 * i) <- v) walk;
  Array.iteri (fun j inst -> filled.((2 * j) + 1) <- identities.(inst)) sigma;
  Printf.printf
    "\nW_i+1 after matching-based placement (midpoints re-sampled into slots):\n  %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int filled)));
  Report.record ~id:"F1"
    ~params:[ ("check", Report.str "Figure 1 pipeline, filled walk length") ]
    ~bound:(float_of_int ((2 * Array.length walk) - 1))
    (float_of_int (Array.length filled));
  print_endline
    "\n(The placement is drawn proportional to the product of Formula 1\n\
     weights — Theorem 3 shows this reproduces the true conditional law of\n\
     the midpoints given the multiset.)"

(* ---------------------------------------------------------------- F2 --- *)

let f2 () =
  section "F2" "fault injection: recovery overhead vs message-drop probability";
  let n = if !fast then 32 else 64 in
  let tau = 4 * n in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "doubling walks on cycle(%d), tau = %d, under seeded message \
            drops:\nextra rounds bought by ack + retransmission (fault seed \
            fixed, so\nevery row heals the same walk)"
           n tau)
      ~columns:
        [ "drop prob"; "rounds"; "overhead"; "overhead %"; "retransmits";
          "dropped"; "health" ]
  in
  List.iter
    (fun drop_prob ->
      let g = Gen.cycle n in
      let prng = Prng.create ~seed:11 in
      let net = Net.create ~n in
      Report.attach_profile ~id:"F2" net;
      let net =
        if drop_prob > 0.0 then
          Net.with_faults (Fault.create (Fault.spec ~drop_prob ~seed:7 ())) net
        else net
      in
      let r =
        Doubling.run net prng g ~tau ~scheme:(Doubling.default_scheme ~n)
      in
      let total = Net.rounds net in
      let overhead = Net.overhead_rounds net in
      Report.record ~id:"F2"
        ~params:[ ("n", Report.int n); ("drop_prob", Report.flt drop_prob) ]
        ~bound:total
        ~extra:
          [
            ("retransmits", Report.int (Net.retransmits net));
            ("dropped", Report.int (Net.dropped net));
            ( "health",
              Report.str (Format.asprintf "%a" Fault.pp_health r.Doubling.health)
            );
          ]
        overhead;
      Table.add_row table
        [
          Table.cell_float ~decimals:2 drop_prob;
          Table.cell_float ~decimals:0 total;
          Table.cell_float ~decimals:0 overhead;
          Table.cell_float ~decimals:1 (100.0 *. overhead /. total);
          Table.cell_int (Net.retransmits net);
          Table.cell_int (Net.dropped net);
          Format.asprintf "%a" Fault.pp_health r.Doubling.health;
        ])
    [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
  Table.print table;
  print_endline
    "Expected shape: retransmits scale linearly with the drop rate (each\n\
     dropped packet costs one retry wave w.h.p.), so the overhead stays a\n\
     modest fraction of the fault-free rounds until drops are frequent\n\
     enough to trigger second-wave retries and their exponential backoff."

(* ---------------------------------------------------------------- D1 --- *)

(* The replay workflow (ccreplay, CI determinism job) relies on the event
   stream being a pure function of the seed. D1 pins that: two sampler runs
   with identical seeds must produce byte-identical recorder digests and a
   clean invariant report; the reported measurement is 1.0 iff both hold,
   gated against bound = 1.0 so any nondeterminism regression trips the
   ccprof diff gate. *)

let d1 () =
  section "D1" "determinism: same seed twice -> identical recorder digests";
  let n = if !fast then 16 else 32 in
  let seed = 42 in
  let run () =
    let prng = Prng.create ~seed in
    let g = Gen.build prng Gen.Lollipop ~n in
    let net = Net.create ~n:(Graph.n g) in
    Report.attach_profile ~id:"D1" net;
    let recorder = Cc_obs.Recorder.create ~machines:(Graph.n g) () in
    let inv = Cc_obs.Invariant.create ~machines:(Graph.n g) () in
    ignore (Net.attach_recorder net recorder);
    ignore (Net.attach_invariant net inv);
    ignore (Sampler.sample net prng g);
    let violations =
      Cc_obs.Invariant.count inv + List.length (Net.ledger_violations net inv)
    in
    (Cc_obs.Recorder.digest_hex recorder, Cc_obs.Recorder.total recorder,
     violations)
  in
  let d_a, total_a, viol_a = run () in
  let d_b, total_b, viol_b = run () in
  let identical = String.equal d_a d_b && total_a = total_b in
  let clean = viol_a = 0 && viol_b = 0 in
  Report.record ~id:"D1"
    ~params:[ ("n", Report.int n); ("seed", Report.int seed) ]
    ~bound:1.0
    ~extra:
      [
        ("digest_a", Report.str d_a);
        ("digest_b", Report.str d_b);
        ("records", Report.int total_a);
        ("violations", Report.int (viol_a + viol_b));
      ]
    (if identical && clean then 1.0 else 0.0);
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "two sampler runs, lollipop(%d), seed %d: recorder digests" n seed)
      ~columns:[ "run"; "records"; "digest"; "violations" ]
  in
  Table.add_row table
    [ "A"; string_of_int total_a; d_a; string_of_int viol_a ];
  Table.add_row table
    [ "B"; string_of_int total_b; d_b; string_of_int viol_b ];
  Table.print table;
  Printf.printf "identical digests: %b, invariants clean: %b\n" identical clean;
  if not (identical && clean) then
    print_endline
      "DETERMINISM REGRESSION: same-seed runs diverged (or violated an \
       invariant); use ccreplay diff on recorded logs to find the first \
       divergent event."

(* --------------------------------------------------------------- E11 --- *)

let e11 () =
  section "E11"
    "related work: CONGEST baselines vs the Congested Clique algorithms";
  let ns = if !fast then [ 16; 32 ] else [ 16; 32; 64 ] in
  let table =
    Table.create
      ~title:
        "rounds to sample one spanning tree of lollipop(n), per model:\n\
         CONGEST step-by-step (cover-time rounds), CONGEST Das Sarma et al.\n\
         (stitched short walks, ~sqrt(L D)), clique doubling (Theorem 1),\n\
         clique sublinear (Theorem 2)"
      ~columns:
        [ "n"; "D"; "CONGEST naive"; "CONGEST stitched"; "clique doubling";
          "clique sublinear" ]
  in
  List.iter
    (fun n ->
      let g = Gen.lollipop ~clique:(n / 2) ~tail:(n - (n / 2)) in
      let prng = Prng.create ~seed:11 in
      let cnet = Cc_congest.Cnet.create g in
      let naive = Cc_congest.Congest_walk.step_by_step cnet prng in
      let cnet2 = Cc_congest.Cnet.create g in
      let lambda =
        Cc_congest.Congest_walk.auto_lambda cnet2
          ~walk_estimate:(max 16 (naive.Cc_congest.Congest_walk.walk_length / 2))
      in
      let stitched =
        Cc_congest.Congest_walk.das_sarma cnet2 prng ~lambda ~eta:4
      in
      let net_d = Net.create ~n in
      Report.attach_profile ~id:"E11" net_d;
      ignore (Doubling.sample_tree net_d prng g ~tau0:n);
      let net_s = Net.create ~n in
      Report.attach_profile ~id:"E11" net_s;
      let r = Sampler.sample net_s prng g in
      Report.record ~id:"E11"
        ~params:[ ("n", Report.int n) ]
        ~extra:
          [
            ("congest_naive", Report.flt naive.Cc_congest.Congest_walk.rounds);
            ( "congest_stitched",
              Report.flt stitched.Cc_congest.Congest_walk.rounds );
            ("clique_doubling", Report.flt (Net.rounds net_d));
          ]
        r.Sampler.rounds;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int (Cc_congest.Cnet.depth cnet);
          Table.cell_float ~decimals:0 naive.Cc_congest.Congest_walk.rounds;
          Table.cell_float ~decimals:0 stitched.Cc_congest.Congest_walk.rounds;
          Table.cell_float ~decimals:0 (Net.rounds net_d);
          Table.cell_float ~decimals:0 r.Sampler.rounds;
        ])
    ns;
  Table.print table;
  print_endline
    "Expected shape: the stitched CONGEST walk beats the naive one by\n\
     ~sqrt(L/D); both CONGEST baselines blow up with the n^3-scale cover\n\
     time, while the clique sublinear sampler's n^(0.5+alpha) polylog\n\
     growth pulls away — the all-to-all bandwidth is what the paper buys."

(* ---------------------------------------------------------------- A1 --- *)

let a1 () =
  section "A1" "ablation: sparsifier quality vs number of sampled trees";
  let n = if !fast then 16 else 24 in
  let prng = Prng.create ~seed:21 in
  let g = Gen.complete n in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "K%d: reweighted tree-union sparsifier (trees from the CC sampler)" n)
      ~columns:[ "trees"; "edges kept"; "cut ratio range"; "Rayleigh range" ]
  in
  let net = Net.create ~n in
  Report.attach_profile ~id:"A1" net;
  let sampler g prng = (Sampler.sample net prng g).Sampler.tree in
  List.iter
    (fun t ->
      let h = Cc_apps.Sparsifier.union prng sampler g ~trees:t ~reweight:true in
      let q = Cc_apps.Sparsifier.evaluate prng g h ~probes:200 in
      Report.record ~id:"A1"
        ~params:[ ("n", Report.int n); ("trees", Report.int t) ]
        ~extra:
          [
            ("cut_ratio_min", Report.flt q.Cc_apps.Sparsifier.cut_ratio_min);
            ("cut_ratio_max", Report.flt q.Cc_apps.Sparsifier.cut_ratio_max);
            ("rayleigh_min", Report.flt q.Cc_apps.Sparsifier.rayleigh_min);
            ("rayleigh_max", Report.flt q.Cc_apps.Sparsifier.rayleigh_max);
          ]
        (float_of_int q.Cc_apps.Sparsifier.edges_kept);
      Table.add_row table
        [
          Table.cell_int t;
          Table.cell_int q.Cc_apps.Sparsifier.edges_kept;
          Printf.sprintf "[%.2f, %.2f]" q.Cc_apps.Sparsifier.cut_ratio_min
            q.Cc_apps.Sparsifier.cut_ratio_max;
          Printf.sprintf "[%.2f, %.2f]" q.Cc_apps.Sparsifier.rayleigh_min
            q.Cc_apps.Sparsifier.rayleigh_max;
        ])
    [ 1; 4; 16 ];
  Table.print table;
  print_endline
    "Expected shape: both ranges tighten toward [1,1] as trees accumulate —\n\
     the sparsification application from the paper's introduction, driven\n\
     end-to-end by the distributed sampler."

(* ---------------------------------------------------------------- A2 --- *)

let a2 () =
  section "A2" "ablation: all six tree samplers, time + marginal accuracy";
  let n = if !fast then 10 else 14 in
  let trials = if !fast then 300 else 800 in
  let prng = Prng.create ~seed:22 in
  let g = Gen.random_connected prng ~n ~extra_edges:n in
  let net = Net.create ~n in
  let samplers =
    [
      ("Aldous-Broder", fun g -> Cc_walks.Aldous_broder.sample_tree g (Prng.split prng));
      ("Wilson", fun g -> Cc_walks.Wilson.sample_tree g (Prng.split prng));
      ("up-down MCMC", fun g -> Cc_walks.Updown.sample_tree g (Prng.split prng));
      ("determinantal", fun g -> Cc_walks.Determinantal.sample_tree g (Prng.split prng));
      ("sequential phased", fun g -> Cc_sampler.Sequential.sample_tree g (Prng.split prng));
      ("CC distributed", fun g -> (Sampler.sample net (Prng.split prng) g).Sampler.tree);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "random graph n=%d, m=%d: %d samples per sampler; gap = l-inf \
            distance of empirical edge marginals to exact leverage scores"
           n (Graph.num_edges g) trials)
      ~columns:[ "sampler"; "time/sample"; "max marginal gap"; "4-sigma tol" ]
  in
  let tol =
    (4.0 *. Stats.binomial_confidence ~n:trials ~p:0.5) +. 0.01
  in
  List.iter
    (fun (name, sampler) ->
      let t0 = Unix.gettimeofday () in
      let gap = Cc_walks.Determinantal.max_marginal_gap g ~trials sampler in
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int trials in
      Report.record ~id:"A2"
        ~params:[ ("sampler", Report.str name); ("trials", Report.int trials) ]
        ~bound:tol
        ~extra:[ ("time_per_sample_s", Report.flt dt) ]
        gap;
      let time_cell =
        if dt > 1.0 then Printf.sprintf "%.2f s" dt
        else if dt > 1e-3 then Printf.sprintf "%.2f ms" (dt *. 1e3)
        else Printf.sprintf "%.0f us" (dt *. 1e6)
      in
      Table.add_row table
        [ name; time_cell; Table.cell_float ~decimals:4 gap;
          Table.cell_float ~decimals:4 tol ])
    samplers;
  Table.print table;
  print_endline
    "Expected shape: every sampler\'s marginal gap is within the statistical\n\
     tolerance — six independent implementations (four exact sequential, the\n\
     phased Schur reference, and the full distributed pipeline) agree on a\n\
     graph whose tree count is far beyond enumeration."

(* ---------------------------------------------------------------- A3 --- *)

let a3 () =
  section "A3" "ablation: sampler configurations (matching, Schur, bits, alpha)";
  let n = if !fast then 24 else 32 in
  (* Barbell rather than lollipop: its cliques make the chain aperiodic, so
     the non-lazy configuration is directly comparable (on bipartite-tailed
     graphs the non-lazy walk materializes the full Theta(n^3) target at the
     leader, which is the documented reason lazy_walk defaults to true). *)
  let g = Gen.barbell (n / 2) in
  let configs =
    [
      ("default (exact-solve Schur)", Sampler.default_config);
      ("magical matching", { Sampler.default_config with matching = Phase_walk.Magical });
      ("powering Schur", { Sampler.default_config with schur = Sampler.Powering { k = None } });
      ("40-bit fixed point", { Sampler.default_config with bits = Some 40 });
      ("non-lazy walk", { Sampler.default_config with lazy_walk = false });
      ("alpha = 1/3",
       { Sampler.default_config with backend = Matmul.charged ~alpha:(1.0 /. 3.0) () });
      ("semiring matmul (n^1/3)",
       { Sampler.default_config with backend = Matmul.Routed_semiring });
      ("routed matmul (naive n)",
       { Sampler.default_config with backend = Matmul.Routed_broadcast });
    ]
  in
  let table =
    Table.create
      ~title:(Printf.sprintf "barbell n=%d: one sample per configuration" n)
      ~columns:[ "configuration"; "phases"; "rounds"; "walk"; "time" ]
  in
  List.iter
    (fun (name, config) ->
      let net = Net.create ~n in
      Report.attach_profile ~id:"A3" net;
      let prng = Prng.create ~seed:23 in
      let t0 = Unix.gettimeofday () in
      let r = Sampler.sample ~config net prng g in
      Report.record ~id:"A3"
        ~params:[ ("configuration", Report.str name); ("n", Report.int n) ]
        ~extra:
          [
            ("phases", Report.int r.Sampler.phases);
            ("walk_length", Report.int r.Sampler.walk_total);
            ("wall_s", Report.flt (Unix.gettimeofday () -. t0));
          ]
        r.Sampler.rounds;
      Table.add_row table
        [
          name;
          Table.cell_int r.Sampler.phases;
          Table.cell_float ~decimals:0 r.Sampler.rounds;
          Table.cell_int r.Sampler.walk_total;
          Printf.sprintf "%.2f s" (Unix.gettimeofday () -. t0);
        ])
    configs;
  Table.print table;
  print_endline
    "Expected shape: identical tree law across configurations (verified\n\
     statistically in E5/test suite); rounds rise with alpha and explode\n\
     with the routed (naive) matmul backend — quantifying how much the\n\
     fast-matmul black box and the paper\'s design choices buy."

(* ---------------------------------------------------------------- A4 --- *)

let a4 () =
  section "A4" "round-budget breakdown of one full sampler run";
  let n = if !fast then 32 else 64 in
  let g = Gen.lollipop ~clique:(n / 2) ~tail:(n - (n / 2)) in
  let net = Net.create ~n in
  Report.attach_profile ~id:"A4" net;
  let profile = Cc_obs.Profile.create ~machines:n in
  ignore (Net.attach_profile net profile);
  let prng = Prng.create ~seed:24 in
  let r = Sampler.sample net prng g in
  Printf.printf "lollipop n=%d: %d phases, %.0f rounds total\n" n
    r.Sampler.phases r.Sampler.rounds;
  List.iter
    (fun (label, rounds, _, _) ->
      Report.record ~id:"A4"
        ~params:[ ("n", Report.int n); ("primitive", Report.str label) ]
        ~bound:r.Sampler.rounds rounds)
    (Net.ledger net);
  Table.print (Net.ledger_table net);
  print_string (Cc_obs.Profile.render profile);
  print_endline
    "Expected shape: the Schur/shortcut powering and the per-phase matrix\n\
     power tables dominate (the paper's \"matrix multiplication time per\n\
     phase\"); the walk machinery itself — binary-search checks, midpoint\n\
     traffic, multiset gathers — costs polylog per phase."

(* ---------------------------------------------------------------- Q1 --- *)

(* Statistical-quality plane (lib/audit): how many samples each sampler needs
   before the online auditor's gates pass AND the exact-distribution TV drops
   under a fixed threshold — and, dually, how fast the deliberately biased
   negative fixture is rejected. Everything here is seeded, so the quality
   columns (cc-bench/4) are deterministic inputs to the ccprof baseline
   gate. *)

let q1 () =
  section "Q1" "audit plane: samples to statistical verdict per sampler";
  let batch = 25 in
  let max_trials = if !fast then 800 else 2400 in
  let tv_pass = 0.1 in
  let graphs = [ ("K4", Gen.complete 4); ("cycle6", Gen.cycle 6) ] in
  let samplers =
    [
      ("Wilson", fun _ prng g -> Cc_walks.Wilson.sample_tree g prng);
      ("Aldous-Broder", fun _ prng g -> Cc_walks.Aldous_broder.sample_tree g prng);
      ("Sequential", fun _ prng g -> Cc_sampler.Sequential.sample_tree g prng);
      ("CC sampler", fun net prng g -> (Sampler.sample net prng g).Sampler.tree);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "samples until the audit verdict settles (batches of %d, budget \
            %d; pass additionally needs exact-distribution TV <= %.2f)"
           batch max_trials tv_pass)
      ~columns:
        [ "graph"; "sampler"; "samples"; "max|z|"; "TV(exact)"; "ESS"; "verdict" ]
  in
  let quality_of aud =
    Report.quality
      [
        ("tv", Audit.tv_edges aud);
        ("kl", Audit.kl_edges aud);
        ("max_z", Audit.max_z aud);
        ("ess", Audit.ess aud);
      ]
  in
  (* Drive [draw] in batches until [settled] holds or the budget runs out;
     returns the trial count at the decision point. *)
  let run_batches aud draw settled =
    let trials = ref 0 in
    let decided = ref false in
    while (not !decided) && !trials < max_trials do
      for _ = 1 to batch do
        Audit.observe aud (draw ())
      done;
      trials := !trials + batch;
      decided := settled aud !trials
    done;
    !trials
  in
  let row ~gname ~sname ~trials ~decided aud =
    let tv = match Audit.small_tv aud with Some tv -> tv | None -> Float.nan in
    Report.record ~id:"Q1"
      ~params:
        [
          ("graph", Report.str gname);
          ("sampler", Report.str sname);
          ("batch", Report.int batch);
        ]
      ~bound:(float_of_int max_trials)
      ~extra:[ quality_of aud ]
      (float_of_int trials);
    Table.add_row table
      [
        gname;
        sname;
        Table.cell_int trials;
        Table.cell_float ~decimals:2 (Audit.max_z aud);
        Table.cell_float ~decimals:4 tv;
        Table.cell_float ~decimals:0 (Audit.ess aud);
        decided;
      ]
  in
  List.iter
    (fun (gname, g) ->
      let n = Graph.n g in
      List.iter
        (fun (sname, sampler) ->
          let aud = Audit.create g in
          let prng = Prng.create ~seed:11 in
          let net = Net.create ~n in
          Report.attach_profile ~id:"Q1" net;
          let trials =
            run_batches aud
              (fun () -> sampler net prng g)
              (fun aud trials ->
                trials >= 50
                && (Audit.verdict aud).Audit.pass
                && match Audit.small_tv aud with
                   | Some tv -> tv <= tv_pass
                   | None -> true)
          in
          let decided =
            if
              (Audit.verdict aud).Audit.pass
              && match Audit.small_tv aud with
                 | Some tv -> tv <= tv_pass
                 | None -> true
            then "pass"
            else "BUDGET"
          in
          row ~gname ~sname ~trials ~decided aud)
        samplers)
    graphs;
  (* Negative control: the biased Wilson fixture must be rejected well inside
     the same budget — this is the row that proves the gates have power. *)
  let g = Gen.cycle 6 in
  let aud = Audit.create g in
  let prng = Prng.create ~seed:11 in
  let trials =
    run_batches aud
      (fun () -> Cc_walks.Wilson.sample_biased g prng)
      (fun aud _ -> not (Audit.verdict aud).Audit.pass)
  in
  let decided =
    if not (Audit.verdict aud).Audit.pass then "REJECTED" else "missed!"
  in
  row ~gname:"cycle6" ~sname:"Wilson biased" ~trials ~decided aud;
  Table.print table;
  print_endline
    "Expected shape: every honest sampler passes within a few hundred\n\
     samples (samples/budget well under 1), while the biased fixture is\n\
     REJECTED almost immediately — the Bonferroni z-gate sees its ~p^4\n\
     marginal long before the exact-TV criterion would settle."

(* ---------------------------------------------------------------- S1 --- *)

(* Drives a real ccserve core over a real Unix-domain socket, in-process:
   the bench process plays both the server (cooperative [Serve.step]) and
   the clients (nonblocking fds writing Protocol request lines), so the
   measurement needs no forked binary and no sleeps.

   Cold and warm phases request the SAME seed list, so both draw identical
   walks (the prepare/draw determinism contract); the only difference is
   that cold requests hit a fresh server — paying [Sampler.prepare], the
   memo-cold Schur/shortcut compute, and server start/stop — while warm
   requests are plan-cache + memo hits that pay only the draw. Different
   seeds would make the walk-length variance swamp the cached compute. *)
let s1 () =
  section "S1" "ccserve: plan-cache throughput, cold vs warm, 1 vs 4 clients";
  let n = 32 in
  let g = Gen.build (Prng.create ~seed:1) Gen.Complete ~n in
  let sock_counter = ref 0 in
  let fresh_server () =
    incr sock_counter;
    let sock =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cc-bench-s1-%d-%d.sock" (Unix.getpid ()) !sock_counter)
    in
    Serve.create { (Serve.default_config ~sock) with cache_cap = 4 }
  in
  let shutdown srv =
    Serve.request_stop srv;
    while Serve.step srv do () done
  in
  (* Connect [clients] sockets, send one k=1 request per element of [seeds]
     on each, and pump [Serve.step] against nonblocking reads until every
     done line has arrived. Any server-side error fails the experiment. *)
  let run_requests srv ~clients ~seeds =
    let per_client = List.length seeds in
    let fds =
      List.init clients (fun _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX (Serve.sock_path srv));
          Unix.set_nonblock fd;
          (fd, Buffer.create 4096))
    in
    List.iter
      (fun (fd, _) ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun seed ->
            Buffer.add_string buf
              (Serve_protocol.request_line ~graph:g ~k:1 ~seed
                 ~meth:Serve_protocol.Cc ()))
          seeds;
        let s = Buffer.contents buf in
        let off = ref 0 in
        while !off < String.length s do
          match Unix.write_substring fd s !off (String.length s - !off) with
          | w -> off := !off + w
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
              ignore (Serve.step srv)
        done)
      fds;
    let target = clients * per_client in
    let done_seen = ref 0 in
    let chunk = Bytes.create 65536 in
    let steps = ref 0 in
    while !done_seen < target do
      incr steps;
      if !steps > 5_000_000 then failwith "S1: server stalled";
      ignore (Serve.step srv);
      List.iter
        (fun (fd, rbuf) ->
          (try
             let reading = ref true in
             while !reading do
               match Unix.read fd chunk 0 (Bytes.length chunk) with
               | 0 -> reading := false
               | len -> Buffer.add_subbytes rbuf chunk 0 len
             done
           with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ());
          let s = Buffer.contents rbuf in
          match String.rindex_opt s '\n' with
          | None -> ()
          | Some last ->
              Buffer.clear rbuf;
              Buffer.add_substring rbuf s (last + 1)
                (String.length s - last - 1);
              String.split_on_char '\n' (String.sub s 0 last)
              |> List.iter (fun line ->
                     if line <> "" then
                       match Serve_protocol.parse_response line with
                       | Ok (Serve_protocol.Done _) -> incr done_seen
                       | Ok (Serve_protocol.Tree _) -> ()
                       | Ok (Serve_protocol.Error e) ->
                           failwith ("S1: server error: " ^ e.message)
                       | Error msg -> failwith ("S1: bad response: " ^ msg)))
        fds
    done;
    List.iter (fun (fd, _) -> Unix.close fd) fds
  in
  let reps = if !fast then 3 else 5 and passes = 3 in
  let seeds = List.init reps (fun i -> 1 + i) in
  (* cold: fresh server (empty plan cache, cold memo) for every request *)
  let cold () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun s ->
        let srv = fresh_server () in
        run_requests srv ~clients:1 ~seeds:[ s ];
        shutdown srv)
      seeds;
    Unix.gettimeofday () -. t0
  in
  (* warm: prime with one pass over the same seeds, then measure a second
     pass — identical walks, but every request is a cache + memo hit *)
  let warm ~clients =
    let srv = fresh_server () in
    run_requests srv ~clients:1 ~seeds;
    let t0 = Unix.gettimeofday () in
    run_requests srv ~clients ~seeds;
    let wall = Unix.gettimeofday () -. t0 in
    let hits, misses, _ = Serve.cache_stats srv in
    shutdown srv;
    (wall, hits, misses)
  in
  (* The gated pair alternates and keeps the best of [passes] each, so one
     descheduled pass cannot decide the gate. *)
  let cold_wall = ref infinity and warm1 = ref (infinity, 0, 0) in
  for _ = 1 to passes do
    cold_wall := Float.min !cold_wall (cold ());
    let ((wall, _, _) as w) = warm ~clients:1 in
    let best, _, _ = !warm1 in
    if wall < best then warm1 := w
  done;
  let cold_wall = !cold_wall and warm1_wall, h1, m1 = !warm1 in
  let cold_tps = float_of_int reps /. cold_wall
  and warm1_tps = float_of_int reps /. warm1_wall in
  let warm4_wall, h4, m4 = warm ~clients:4 in
  let warm4_tps = float_of_int (4 * reps) /. warm4_wall in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "complete graph n=%d, k=1 per request, served over a Unix socket; \
            1-client rows best of %d alternating passes"
           n passes)
      ~columns:
        [ "phase"; "clients"; "requests"; "wall (s)"; "trees/s"; "hit/miss" ]
  in
  let row ~phase ~clients ~requests ~wall ~hits ~misses tps =
    Report.record ~id:"S1"
      ~params:
        [
          ("phase", Report.str phase);
          ("clients", Report.int clients);
          ("n", Report.int n);
          ("requests", Report.int requests);
        ]
      ~extra:
        [
          ("wall_s", Report.flt wall);
          ("cache_hits", Report.int hits);
          ("cache_misses", Report.int misses);
        ]
      tps;
    Table.add_row table
      [
        phase;
        Table.cell_int clients;
        Table.cell_int requests;
        Table.cell_float ~decimals:3 wall;
        Table.cell_float ~decimals:1 tps;
        Printf.sprintf "%d/%d" hits misses;
      ]
  in
  row ~phase:"cold" ~clients:1 ~requests:reps ~wall:cold_wall ~hits:0
    ~misses:reps cold_tps;
  row ~phase:"warm" ~clients:1 ~requests:reps ~wall:warm1_wall ~hits:h1
    ~misses:m1 warm1_tps;
  row ~phase:"warm" ~clients:4 ~requests:(4 * reps) ~wall:warm4_wall ~hits:h4
    ~misses:m4 warm4_tps;
  (* hardware-independent gate row for ccprof diff: 1.0 iff warm beat cold *)
  Report.record ~id:"S1"
    ~params:[ ("phase", Report.str "gate"); ("n", Report.int n) ]
    ~bound:1.0
    ~extra:[ ("speedup", Report.flt (warm1_tps /. cold_tps)) ]
    (if warm1_tps > cold_tps then 1.0 else 0.0);
  Table.print table;
  Printf.printf "warm/cold speedup (1 client): %.1fx\n" (warm1_tps /. cold_tps);
  if warm1_tps <= cold_tps then
    failwith
      "S1 REGRESSION: warm-cache throughput did not beat cold — plan reuse \
       is no longer skipping preparation";
  print_endline
    "Expected shape: warm requests reuse the cached factorization and only\n\
     pay the draw, so warm trees/s sits well above cold (which pays\n\
     Sampler.prepare per request); 4 concurrent clients see round-robin\n\
     fairness, not a 4x collapse."

(* ---------------------------------------------------------------- R1 --- *)

(* What observability costs a served draw. ccserve attaches a digest-only
   recorder (~max_records:0) to every request's net and reports only the
   chain digest, so every booked primitive pays for writing and folding its
   line. A trace collector pays for its spans and for adding every booking
   to the open ones. R1 times the same 20 draws from one prepared plan on a
   bare net, on a recorded one and on a bare net inside a trace (spans, no
   export), rotating the three and keeping the best of 5 each, and gates
   both ratios to bare. *)
let r1 () =
  section "R1"
    "observability overhead: 20 served draws, bare vs digest-only vs traced";
  let n = 40 and draws = 20 and reps = 5 in
  let limit = 2.0 and traced_limit = 1.5 in
  let g = Gen.build (Prng.create ~seed:3) (Gen.Er_log 3.0) ~n in
  let plan = Sampler.prepare g in
  let run mode =
    let net = Net.create ~n in
    if mode = `Recorded then
      ignore
        (Net.attach_recorder net
           (Cc_obs.Recorder.create ~max_records:0 ~machines:n ()));
    let master = Prng.create ~seed:11 in
    let draw_all () =
      for _ = 1 to draws do
        ignore (Sampler.draw plan net (Prng.split master))
      done
    in
    let t0 = Unix.gettimeofday () in
    if mode = `Traced then
      Cc_obs.Trace.with_trace (Cc_obs.Trace.create ()) draw_all
    else draw_all ();
    Unix.gettimeofday () -. t0
  in
  (* one untimed pass fills the plan's memo, so no side pays it *)
  ignore (run `Bare);
  let bare = ref infinity and recorded = ref infinity in
  let traced = ref infinity in
  for _ = 1 to reps do
    bare := Float.min !bare (run `Bare);
    recorded := Float.min !recorded (run `Recorded);
    traced := Float.min !traced (run `Traced)
  done;
  let ratio = !recorded /. !bare and traced_ratio = !traced /. !bare in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Er_log 3 n=%d, one plan, %d draws per run, best of %d" n draws reps)
      ~columns:[ "net"; "wall (ms)"; "per draw (ms)" ]
  in
  List.iter
    (fun (name, wall) ->
      Report.record ~id:"R1"
        ~params:[ ("net", Report.str name); ("n", Report.int n) ]
        ~extra:[ ("draws", Report.int draws) ]
        wall;
      Table.add_row table
        [
          name;
          Table.cell_float ~decimals:1 (1000.0 *. wall);
          Table.cell_float ~decimals:2 (1000.0 *. wall /. float_of_int draws);
        ])
    [ ("bare", !bare); ("recorded", !recorded); ("traced", !traced) ];
  (* hardware-independent gate rows for ccprof diff: 1.0 iff ratio <= limit *)
  let gate name ratio limit =
    Report.record ~id:"R1"
      ~params:[ ("net", Report.str name); ("n", Report.int n) ]
      ~bound:1.0
      ~extra:[ ("overhead", Report.flt ratio) ]
      (if ratio <= limit then 1.0 else 0.0)
  in
  gate "gate" ratio limit;
  gate "traced gate" traced_ratio traced_limit;
  Table.print table;
  Printf.printf "recorded/bare: %.2fx (gate: <= %.1fx)\n" ratio limit;
  Printf.printf "traced/bare: %.2fx (gate: <= %.1fx)\n" traced_ratio
    traced_limit;
  List.iter
    (fun (what, ratio, limit) ->
      if ratio > limit then
        failwith
          (Printf.sprintf
             "R1 REGRESSION: served draws %s took %.2fx the bare time (limit \
              %.1fx)"
             what ratio limit))
    [
      ("on a digest-only recorded net", ratio, limit);
      ("inside a trace", traced_ratio, traced_limit);
    ];
  print_endline
    "Expected shape: the recorder writes one line per booked primitive\n\
     straight into its own buffer and folds it in place, so recorded draws\n\
     stay well under twice the bare ones; a trace only adds each booking to\n\
     its open spans, so traced draws stay under 1.5x."

(* ---------------------------------------------------------------- M1 --- *)

(* What a prepared plan holds after serving draws. The plan's per-S memo
   retains later phases' state as draws meet new vertex sets; M1 reads the
   live heap after prepare, after one draw and after 20 draws, and gates the
   growth over 20 draws at twice the growth over the first. *)
let m1 () =
  section "M1" "plan memory: live heap after 1 and 20 draws on one plan";
  let n = 64 and draws = 20 and limit = 2.0 in
  let g = Gen.build (Prng.create ~seed:3) (Gen.Er_log 6.0) ~n in
  let plan = Sampler.prepare g in
  let master = Prng.create ~seed:11 in
  let draw () = ignore (Sampler.draw plan (Net.create ~n) (Prng.split master)) in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let l0 = live () in
  draw ();
  let l1 = live () in
  for _ = 2 to draws do
    draw ()
  done;
  let l20 = live () in
  (* the plan is read after the last reading, so every reading counts it *)
  let _, hits, misses = Sampler.plan_stats plan in
  let ratio = float_of_int (l20 - l0) /. float_of_int (max 1 (l1 - l0)) in
  let table =
    Table.create
      ~title:(Printf.sprintf "Er_log 6 n=%d, one plan, live heap after a full major" n)
      ~columns:[ "after"; "draws"; "live words"; "growth over prepare" ]
  in
  List.iter
    (fun (after, k, words) ->
      Report.record ~id:"M1"
        ~params:
          [ ("after", Report.str after); ("draws", Report.int k); ("n", Report.int n) ]
        (float_of_int words);
      Table.add_row table
        [ after; Table.cell_int k; Table.cell_int words; Table.cell_int (words - l0) ])
    [ ("prepare", 0, l0); ("one draw", 1, l1); ("20 draws", draws, l20) ];
  (* hardware-independent gate row for ccprof diff: 1.0 iff ratio <= limit *)
  Report.record ~id:"M1"
    ~params:[ ("after", Report.str "gate"); ("n", Report.int n) ]
    ~bound:1.0
    ~extra:[ ("ratio", Report.flt ratio) ]
    (if ratio <= limit then 1.0 else 0.0);
  Table.print table;
  Printf.printf "memo: %d hits, %d misses over %d draws\n" hits misses draws;
  Printf.printf "growth over %d draws / over one draw: %.2fx (gate: <= %.1fx)\n"
    draws ratio limit;
  if ratio > limit then
    failwith
      (Printf.sprintf
         "M1 REGRESSION: a plan's live heap grew %.2fx as much over %d draws \
          as over one (limit %.1fx)"
         ratio draws limit);
  print_endline
    "Expected shape: the first draw fills the plan's word-bounded memo, so\n\
     later draws on distinct seeds add nothing that stays live."

(* ------------------------------------------------- bechamel microbench --- *)

let microbench () =
  section "MICRO" "bechamel microbenchmarks of the core kernels";
  let open Bechamel in
  let prng = Prng.create ~seed:12 in
  let m64 =
    Mat.normalize_rows
      (Mat.init ~rows:64 ~cols:64 (fun _ _ -> Prng.float prng 1.0 +. 0.01))
  in
  let g32 = Gen.lollipop ~clique:16 ~tail:16 in
  let er32 = Gen.erdos_renyi_connected prng ~n:32 ~p:0.3 in
  (* Six position classes of five positions: 6^6 = 46,656 DP states on the
     class margin, just under the 50,000 past which a walk level keeps the
     magical order. Six identities of five instances tie it on the row
     margin, and a tie runs the class margin. *)
  let placement40k =
    Placement.build
      ~identities:(Array.init 30 (fun i -> i mod 6))
      ~positions:(Array.init 30 (fun j -> (j / 5, 0)))
      ~weight:(fun ~v ~p ~q:_ -> 0.1 +. float_of_int (((7 * v) + (3 * p)) mod 11))
  in
  (* The transposed shape, a walk-bound level's: the same six identities of
     five instances, now at thirty distinct (start,end) pairs. The class
     margin has 2^30 states; the row margin, which the walk picks, 46,656. *)
  let placement_rows =
    Placement.build
      ~identities:(Array.init 30 (fun i -> i mod 6))
      ~positions:(Array.init 30 (fun j -> (j, j + 1)))
      ~weight:(fun ~v ~p ~q:_ -> 0.1 +. float_of_int (((7 * v) + (3 * p)) mod 11))
  in
  (* One cc_expander phase's dense work at n = 96 (Er_log 6): the shortcut
     inverse of I - T, with T the transition matrix minus the columns of an
     S of every other vertex, and its LU alone; the Schur transition from
     that S's shortcut matrix; a dense product; the transition matrix. Their
     own prng leaves the other rows' inputs as they were. *)
  let prng96 = Prng.create ~seed:96 in
  let er96 = Gen.build prng96 (Gen.family_of_string "erlog:6") ~n:96 in
  let m96 =
    Mat.normalize_rows
      (Mat.init ~rows:96 ~cols:96 (fun _ _ -> Prng.float prng96 1.0 +. 0.01))
  in
  let i_minus_t96 =
    let p = Graph.transition_matrix er96 in
    Mat.init ~rows:96 ~cols:96 (fun w x ->
        (if w = x then 1.0 else 0.0) -. if x mod 2 = 0 then 0.0 else Mat.get p w x)
  in
  let s96 = Array.init 48 (fun i -> 2 * i) in
  let q96 = Shortcut.exact er96 ~in_s:(Schur.members ~n:96 ~s:s96) in
  (* A phase-1 power table at n = 96: the lazy chain of er96 squared
     log2(96^3 * 7) = 23 times, a table that stops once its rows agree. *)
  let lazy96 = Mat.half_lazy (Graph.transition_matrix er96) in
  (* The exact oracles of an oracle_sparsify job at its largest size: every
     edge's effective resistance, and one chain-rule tree. Their own prng,
     again. *)
  let prng44 = Prng.create ~seed:44 in
  let er44 =
    Gen.random_weights prng44 (Gen.build prng44 (Gen.Er_log 3.0) ~n:44) ~max_weight:8
  in
  (* One phase-1 walk at n = 64 on lollipop, the cover-time worst case: the
     sampler's rho = 8 and 2^21 target, the lazy chain's power table built
     once, so a run replays that table's bookings and times the level loop
     alone (Formula 1 laws, Check probes, gather and placement). Each run
     starts from the same seed, so every run fills the same walk. *)
  let lollipop64 = Gen.lollipop ~clique:32 ~tail:32 in
  let lazy64 = Mat.half_lazy (Graph.transition_matrix lollipop64) in
  let powers64 = ref (Some (Matmul.power_table_pure lazy64 ~levels:21)) in
  let tests =
    [
      Test.make ~name:"phase-walk-lollipop-64"
        (Staged.stage (fun () ->
             ignore
               (Phase_walk.run (Net.create ~n:64) (Prng.create ~seed:1)
                  ~backend:(Matmul.charged ()) ~powers_slot:powers64
                  ~trans:lazy64 ~machine_of:Fun.id ~start:0 ~rho:8
                  ~target_len:(1 lsl 21) ~matching:Phase_walk.Resample ())));
      Test.make ~name:"mat-mul-64" (Staged.stage (fun () -> ignore (Mat.mul m64 m64)));
      Test.make ~name:"lu-inverse-64"
        (Staged.stage (fun () -> ignore (Cc_linalg.Solve.inverse m64)));
      Test.make ~name:"mat-mul-96" (Staged.stage (fun () -> ignore (Mat.mul m96 m96)));
      Test.make ~name:"lu-inverse-96"
        (Staged.stage (fun () -> ignore (Cc_linalg.Solve.inverse i_minus_t96)));
      Test.make ~name:"lu-only-96"
        (Staged.stage (fun () -> ignore (Cc_linalg.Solve.log_determinant i_minus_t96)));
      Test.make ~name:"schur-via-shortcut-96"
        (Staged.stage (fun () -> ignore (Schur.transition_via_shortcut er96 q96 ~s:s96)));
      Test.make ~name:"power-table-er96"
        (Staged.stage (fun () ->
             ignore (Matmul.power_table_pure lazy96 ~levels:23)));
      Test.make ~name:"transition-96"
        (Staged.stage (fun () -> ignore (Graph.transition_matrix er96)));
      Test.make ~name:"edge-resistances-44"
        (Staged.stage (fun () -> ignore (Graph.edge_resistances er44)));
      Test.make ~name:"determinantal-44"
        (Staged.stage (fun () ->
             ignore (Cc_walks.Determinantal.sample_tree er44 prng44)));
      Test.make ~name:"placement-dp-40k"
        (Staged.stage (fun () -> ignore (Placement.sample_exact prng placement40k)));
      Test.make ~name:"placement-rows"
        (Staged.stage (fun () ->
             ignore
               (Placement.sample_exact ~max_states:50_000 ~margin:Placement.Rows
                  prng placement_rows)));
      Test.make ~name:"aldous-broder-lollipop-32"
        (Staged.stage (fun () -> ignore (Cc_walks.Aldous_broder.sample_tree g32 prng)));
      Test.make ~name:"wilson-lollipop-32"
        (Staged.stage (fun () -> ignore (Cc_walks.Wilson.sample_tree g32 prng)));
      Test.make ~name:"cc-sampler-lollipop-32"
        (Staged.stage (fun () ->
             let net = Net.create ~n:32 in
             ignore (Sampler.sample net prng g32)));
      Test.make ~name:"doubling-tau256-er-32"
        (Staged.stage (fun () ->
             let net = Net.create ~n:32 in
             ignore
               (Doubling.run net prng er32 ~tau:256
                  ~scheme:(Doubling.default_scheme ~n:32))));
      Test.make ~name:"schur-exact-er-32"
        (Staged.stage (fun () ->
             ignore (Schur.transition_exact er32 ~s:(Array.init 16 (fun i -> 2 * i)))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let table =
    Table.create ~title:"wall-clock per call (OLS estimate)"
      ~columns:[ "kernel"; "time" ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun (name, raw) ->
          let est = Analyze.one ols instance raw in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some [ e ] -> e
            | _ -> Float.nan
          in
          let cell =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
            else Printf.sprintf "%.0f ns" nanos
          in
          Report.record ~id:"MICRO"
            ~params:[ ("kernel", Report.str name) ]
            nanos;
          Table.add_row table [ name; cell ])
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Benchmark.all cfg [ instance ] test) []))
    (List.map (fun t -> Test.make_grouped ~name:"k" [ t ]) tests);
  Table.print table

(* ------------------------------------------------------------- driver --- *)

let () =
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--micro" :: rest ->
        micro := true;
        parse rest
    | "-e" :: id :: rest ->
        selected := String.uppercase_ascii id :: !selected;
        parse rest
    | "--json" :: file :: rest ->
        Report.enable file;
        parse rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf
    "Congested Clique spanning-tree sampling — benchmark harness\n\
     (paper: Pemmaraju, Roy, Sobel, PODC 2025; see EXPERIMENTS.md)\n";
  let run_exp id f =
    if wants id then begin
      let t0 = Unix.gettimeofday () in
      f ();
      Report.finish_experiment ~id ~wall_s:(Unix.gettimeofday () -. t0)
    end
  in
  run_exp "E1" e1;
  run_exp "E2" e2;
  run_exp "E3" e3;
  run_exp "E4" e4;
  run_exp "E5" e5;
  run_exp "E6" e6;
  run_exp "E7" e7;
  run_exp "E8" e8;
  run_exp "E9" e9;
  run_exp "E10" e10;
  run_exp "E11" e11;
  run_exp "F1" f1;
  run_exp "F2" f2;
  run_exp "D1" d1;
  run_exp "A1" a1;
  run_exp "A2" a2;
  run_exp "A3" a3;
  run_exp "A4" a4;
  run_exp "Q1" q1;
  run_exp "S1" s1;
  run_exp "R1" r1;
  run_exp "M1" m1;
  if !micro || List.mem "MICRO" !selected then begin
    let t0 = Unix.gettimeofday () in
    microbench ();
    Report.finish_experiment ~id:"MICRO"
      ~wall_s:(Unix.gettimeofday () -. t0)
  end;
  Report.write ~fast:!fast
