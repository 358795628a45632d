(* Tests for Cc_util: PRNG determinism, k-wise hashing, distributions,
   statistics, table rendering. *)

module Prng = Cc_util.Prng
module Kwise_hash = Cc_util.Kwise_hash
module Dist = Cc_util.Dist
module Stats = Cc_util.Stats
module Table = Cc_util.Table

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xa = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let xb = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xa <> xb)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:7 in
  let child1 = Prng.split parent in
  let child2 = Prng.split parent in
  let x1 = List.init 20 (fun _ -> Prng.int child1 1_000_000) in
  let x2 = List.init 20 (fun _ -> Prng.int child2 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (x1 <> x2)

let test_prng_int_range () =
  let prng = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.int prng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "Prng.int out of range"
  done

let test_prng_shuffle_is_permutation () =
  let prng = Prng.create ~seed:11 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle prng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 50 (fun i -> i))

let test_prng_subset () =
  let prng = Prng.create ~seed:13 in
  let arr = Array.init 30 (fun i -> i) in
  let sub = Prng.subset prng ~size:10 arr in
  Alcotest.(check int) "size" 10 (Array.length sub);
  let module IS = Set.Make (Int) in
  Alcotest.(check int) "distinct" 10 (IS.cardinal (IS.of_list (Array.to_list sub)))

(* Splitting is deterministic: two parents seeded identically yield, split
   for split, children with identical streams — the property the simulator
   relies on to give every machine a reproducible private stream. *)
let test_prng_split_deterministic () =
  let a = Prng.create ~seed:23 and b = Prng.create ~seed:23 in
  for round = 1 to 5 do
    let ca = Prng.split a and cb = Prng.split b in
    let xa = List.init 50 (fun _ -> Prng.int ca 1_000_000) in
    let xb = List.init 50 (fun _ -> Prng.int cb 1_000_000) in
    Alcotest.(check (list int))
      (Printf.sprintf "split %d reproducible" round)
      xa xb
  done

let test_prng_split_child_differs_from_parent () =
  let parent = Prng.create ~seed:29 in
  let child = Prng.split parent in
  let xp = List.init 50 (fun _ -> Prng.int parent 1_000_000) in
  let xc = List.init 50 (fun _ -> Prng.int child 1_000_000) in
  Alcotest.(check bool) "child stream is not the parent's" true (xp <> xc)

(* A split must not disturb the parent's own stream relative to a twin that
   also split once: the draws after the split stay aligned. *)
let test_prng_parent_stream_after_split () =
  let a = Prng.create ~seed:31 and b = Prng.create ~seed:31 in
  ignore (Prng.split a);
  ignore (Prng.split b);
  for _ = 1 to 100 do
    Alcotest.(check int) "parents stay in lockstep" (Prng.int a 1000)
      (Prng.int b 1000)
  done

(* [streams] must split in index order off the parent: [Doubling] keys each
   machine's draws to that order. *)
let test_prng_streams_match_manual_splits () =
  let a = Prng.create ~seed:37 and b = Prng.create ~seed:37 in
  let via_helper = Prng.streams a 8 in
  let manual = Array.init 8 (fun _ -> Prng.split b) in
  Array.iteri
    (fun i s ->
      let xs = List.init 20 (fun _ -> Prng.int s 1_000_000) in
      let ys = List.init 20 (fun _ -> Prng.int manual.(i) 1_000_000) in
      Alcotest.(check (list int))
        (Printf.sprintf "stream %d matches manual split" i)
        ys xs)
    via_helper

(* --- Kwise_hash --- *)

(* The hash at [x] alone: the pair (0, x) encodes to x. *)
let hash h x = Kwise_hash.apply2 h ~encode_bound:1 0 x

let test_hash_in_range () =
  let prng = Prng.create ~seed:5 in
  let h = Kwise_hash.create prng ~independence:8 ~domain:10_000 ~range:64 in
  for x = 0 to 999 do
    let v = hash h x in
    if v < 0 || v >= 64 then Alcotest.fail "hash out of range"
  done

let test_hash_deterministic () =
  let prng = Prng.create ~seed:5 in
  let h = Kwise_hash.create prng ~independence:8 ~domain:10_000 ~range:64 in
  Alcotest.(check int) "same input same output" (hash h 123)
    (hash h 123)

let test_hash_roughly_uniform () =
  (* Chi-square against uniform over 16 buckets with 16k inputs: statistic
     should be far below a catastrophic threshold. *)
  let prng = Prng.create ~seed:23 in
  let h = Kwise_hash.create prng ~independence:16 ~domain:100_000 ~range:16 in
  let counts = Array.make 16 0 in
  for x = 0 to 16_383 do
    let b = hash h x in
    counts.(b) <- counts.(b) + 1
  done;
  let stat = Dist.chi_square_stat ~counts (Dist.uniform 16) in
  (* 15 dof; mean 15, generous bound. *)
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.1f reasonable" stat)
    true (stat < 60.0)

let test_hash_rejects_bad_arguments () =
  let prng = Prng.create ~seed:5 in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "range = 0" (fun () ->
      Kwise_hash.create prng ~independence:4 ~domain:100 ~range:0);
  expect_invalid "range < 0" (fun () ->
      Kwise_hash.create prng ~independence:4 ~domain:100 ~range:(-3));
  expect_invalid "independence = 0" (fun () ->
      Kwise_hash.create prng ~independence:0 ~domain:100 ~range:10);
  expect_invalid "domain = 0" (fun () ->
      Kwise_hash.create prng ~independence:4 ~domain:0 ~range:10);
  (* The field is F_p for the Mersenne prime p = 2^31 - 1. *)
  expect_invalid "domain >= field" (fun () ->
      Kwise_hash.create prng ~independence:4 ~domain:0x7fffffff ~range:10);
  (* range > domain is explicitly allowed. *)
  ignore (Kwise_hash.create prng ~independence:4 ~domain:100 ~range:1_000)

let test_hash_pairwise_collision_rate () =
  (* For a pairwise-independent family, Pr[h(x) = h(y)] = 1/range. *)
  let prng = Prng.create ~seed:29 in
  let range = 32 in
  let trials = 3000 in
  let collisions = ref 0 in
  for t = 0 to trials - 1 do
    let h = Kwise_hash.create prng ~independence:2 ~domain:10_000 ~range in
    if hash h (2 * t) = hash h ((2 * t) + 1) then
      incr collisions
  done;
  let rate = float_of_int !collisions /. float_of_int trials in
  let expected = 1.0 /. float_of_int range in
  Alcotest.(check bool)
    (Printf.sprintf "collision rate %.4f close to %.4f" rate expected)
    true
    (Float.abs (rate -. expected) < 4.0 *. sqrt (expected /. float_of_int trials) +. 0.01)

(* --- Dist --- *)

let test_dist_normalization () =
  let d = Dist.of_weights [| 1.0; 3.0; 4.0 |] in
  check_float "p0" 0.125 (Dist.prob d 0);
  check_float "p1" 0.375 (Dist.prob d 1);
  check_float "p2" 0.5 (Dist.prob d 2)

(* The inverse-CDF draw: [search] on the law [cdf_in_place] leaves. *)
let test_dist_sample_frequencies () =
  let prng = Prng.create ~seed:101 in
  let d = Dist.of_weights [| 1.0; 2.0; 7.0 |] in
  let cdf = [| 1.0; 2.0; 7.0 |] in
  Dist.cdf_in_place cdf;
  let counts = Array.make 3 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let i = Dist.search cdf (Prng.float prng 1.0) in
    counts.(i) <- counts.(i) + 1
  done;
  let tv = Dist.tv_counts ~counts d in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f small" tv) true (tv < 0.01)

let test_dist_sample_weights_matches () =
  let prng = Prng.create ~seed:103 in
  let w = [| 5.0; 1.0; 4.0 |] in
  let counts = Array.make 3 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let i = Dist.sample_weights w prng in
    counts.(i) <- counts.(i) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.of_weights w) in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f small" tv) true (tv < 0.01)

let test_tv_distance () =
  let a = Dist.of_weights [| 1.0; 1.0 |] in
  let b = Dist.of_weights [| 1.0; 3.0 |] in
  check_float "tv" 0.25 (Dist.tv a b);
  check_float "tv self" 0.0 (Dist.tv a a)

let point ~support_size i =
  Dist.of_weights (Array.init support_size (fun j -> if j = i then 1.0 else 0.0))

let test_point_dist () =
  let d = point ~support_size:4 2 in
  check_float "mass" 1.0 (Dist.prob d 2);
  check_float "elsewhere" 0.0 (Dist.prob d 0)

let test_kl_properties () =
  let a = Dist.of_weights [| 1.0; 1.0 |] in
  check_float "kl self" 0.0 (Dist.kl a a);
  let b = point ~support_size:2 0 in
  Alcotest.(check bool) "kl infinite" true (Dist.kl a b = infinity)

(* The zero-mass contract, both degenerate directions: a-mass where b has
   none is +infinity (never NaN); b-mass where a has none contributes 0. *)
let test_kl_zero_mass () =
  let point = point ~support_size:3 1 in
  let broad = Dist.of_weights [| 1.0; 2.0; 1.0 |] in
  Alcotest.(check bool) "broad || point = inf" true
    (Dist.kl broad point = infinity);
  Alcotest.(check bool) "no NaN in the infinite direction" false
    (Float.is_nan (Dist.kl broad point));
  check_float ~eps:1e-12 "point || broad = -ln q1"
    (-.Float.log 0.5) (Dist.kl point broad);
  check_float "point || point self" 0.0 (Dist.kl point point);
  Alcotest.check_raises "support mismatch"
    (Invalid_argument "Dist: support sizes differ") (fun () ->
      ignore (Dist.kl point (Dist.uniform 4)))

let test_dist_rejects_bad_weights () =
  Alcotest.check_raises "negative" (Invalid_argument "Dist: weights must be finite and nonnegative")
    (fun () -> ignore (Dist.of_weights [| 1.0; -1.0 |]));
  Alcotest.check_raises "all zero" (Invalid_argument "Dist.of_weights: all weights are zero")
    (fun () -> ignore (Dist.of_weights [| 0.0; 0.0 |]))

(* --- Stats --- *)

(* [fit_power] is a least-squares line through (log x, log y): on the
   exponentials of the points of y = 2x + 1 it returns slope 2 and e^1. *)
let test_linear_fit () =
  let xs = Array.map Float.exp [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map Float.exp [| 3.0; 5.0; 7.0; 9.0 |] in
  let slope, coefficient = Stats.fit_power xs ys in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 (Float.log coefficient)

let test_fit_power () =
  let xs = [| 2.0; 4.0; 8.0; 16.0; 32.0 |] in
  let ys = Array.map (fun x -> 3.0 *. (x ** 1.5)) xs in
  let e, c = Stats.fit_power xs ys in
  check_float ~eps:1e-6 "exponent" 1.5 e;
  check_float ~eps:1e-6 "coefficient" 3.0 c

let test_quantile () =
  let xs = [| 5.0; 1.0; 3.0 |] in
  check_float "q0" 1.0 (Stats.quantile 0.0 xs);
  check_float "q50" 3.0 (Stats.quantile 0.5 xs);
  check_float "q100" 5.0 (Stats.quantile 1.0 xs)

let test_stats_errors () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.linear_fit: length mismatch") (fun () ->
      ignore (Stats.fit_power [| 1.0; 2.0 |] [| 1.0 |]));
  Alcotest.check_raises "too few points"
    (Invalid_argument "Stats.linear_fit: need at least two points") (fun () ->
      ignore (Stats.fit_power [| 1.0 |] [| 1.0 |]));
  Alcotest.check_raises "quantile out of range"
    (Invalid_argument "Stats.quantile: q out of range") (fun () ->
      ignore (Stats.quantile 1.5 [| 1.0 |]))

let test_stats_empty_inputs () =
  (* An empty input raises, never returns NaN (see stats.mli, "Edge
     cases"). *)
  Alcotest.check_raises "quantile"
    (Invalid_argument "Stats.quantile: empty input") (fun () ->
      ignore (Stats.quantile 0.5 [||]));
  Alcotest.check_raises "fit_power"
    (Invalid_argument "Stats.linear_fit: need at least two points") (fun () ->
      ignore (Stats.fit_power [||] [||]))

let test_stats_singleton () =
  let x = 7.25 in
  check_float "q0" x (Stats.quantile 0.0 [| x |]);
  check_float "q50" x (Stats.quantile 0.5 [| x |]);
  check_float "q100" x (Stats.quantile 1.0 [| x |])

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "contains cell" true
    (contains_substring s "333")

and test_table_row_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: cell count does not match columns")
    (fun () -> Table.add_row t [ "1" ])

(* Every border and row line of a rendered table must have the same width
   regardless of how ragged the cell contents are. *)
let test_table_alignment () =
  let t = Table.create ~title:"ragged" ~columns:[ "id"; "value"; "note" ] in
  Table.add_row t [ "1"; "3.14159"; "short" ];
  Table.add_row t [ "1024"; "0"; "a considerably longer annotation" ];
  Table.add_row t [ ""; "-7"; "x" ];
  let lines =
    Table.render t |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (match lines with
  | title :: body ->
      Alcotest.(check string) "title line" "ragged" title;
      let widths = List.map String.length body in
      (match widths with
      | w :: rest ->
          List.iter (Alcotest.(check int) "uniform line width" w) rest
      | [] -> Alcotest.fail "no body lines");
      List.iter
        (fun l ->
          Alcotest.(check bool) "framed" true (l.[0] = '+' || l.[0] = '|'))
        body
  | [] -> Alcotest.fail "empty render");
  (* 3 border lines + header + 3 rows after the title. *)
  Alcotest.(check int) "line count" 8 (List.length lines)

let test_table_cell_formats () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "negative int" "-7" (Table.cell_int (-7));
  Alcotest.(check string) "float default decimals" "3.142"
    (Table.cell_float 3.14159);
  Alcotest.(check string) "float custom decimals" "3.1"
    (Table.cell_float ~decimals:1 3.14159);
  Alcotest.(check string) "float zero decimals" "3"
    (Table.cell_float ~decimals:0 3.14159);
  Alcotest.(check string) "sci" "5.000e-01" (Table.cell_sci 0.5);
  Alcotest.(check string) "sci large" "1.230e+06" (Table.cell_sci 1.23e6)

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"dist: probabilities sum to 1"
      (list_of_size (Gen.int_range 1 30) (float_range 0.001 100.0))
      (fun ws ->
        let d = Dist.of_weights (Array.of_list ws) in
        let sum = ref 0.0 in
        List.iteri (fun i _ -> sum := !sum +. Dist.prob d i) ws;
        feq ~eps:1e-9 1.0 !sum);
    (* The law spelled out: total the left fold of the weights, entry i the
       running sum of w.(j) /. total over j <= i, the last entry 1.0.
       Weights span 1e-12 to 1e3 with zeros among them, so summing in any
       other order changes the total's bits. *)
    Test.make ~name:"dist: cdf_in_place is of_weights' law, bit for bit"
      ~count:300
      (pair (int_range 1 60) (int_range 0 1_000_000))
      (fun (len, seed) ->
        let prng = Prng.create ~seed in
        let w =
          Array.init len (fun _ ->
              if Prng.int prng 5 = 0 then 0.0
              else
                Prng.float prng 1.0
                *. (10.0 ** float_of_int (Prng.int prng 16 - 12)))
        in
        w.(Prng.int prng len) <- 1.0;
        let total = ref 0.0 in
        Array.iter (fun x -> total := !total +. x) w;
        let acc = ref 0.0 in
        let spec =
          Array.map
            (fun x ->
              acc := !acc +. (x /. !total);
              !acc)
            w
        in
        spec.(len - 1) <- 1.0;
        let cdf = Array.copy w in
        Dist.cdf_in_place cdf;
        let bits a = Array.map Int64.bits_of_float a in
        let u = Prng.float prng 1.0 in
        let rec first_above j = if spec.(j) > u then j else first_above (j + 1) in
        bits cdf = bits spec
        && bits (Array.init len (Dist.prob (Dist.of_weights w)))
           = bits (Array.map (fun x -> x /. !total) w)
        && Dist.search cdf u = first_above 0);
    Test.make ~name:"dist: tv is symmetric and in [0,1]"
      (pair
         (list_of_size (Gen.return 8) (float_range 0.001 10.0))
         (list_of_size (Gen.return 8) (float_range 0.001 10.0)))
      (fun (wa, wb) ->
        let a = Dist.of_weights (Array.of_list wa) in
        let b = Dist.of_weights (Array.of_list wb) in
        let t1 = Dist.tv a b and t2 = Dist.tv b a in
        feq ~eps:1e-12 t1 t2 && t1 >= 0.0 && t1 <= 1.0 +. 1e-12);
    Test.make ~name:"stats: fit_power recovers planted exponent"
      (pair (float_range 0.2 3.0) (float_range 0.5 10.0))
      (fun (e, c) ->
        let xs = [| 2.0; 4.0; 8.0; 16.0 |] in
        let ys = Array.map (fun x -> c *. (x ** e)) xs in
        let e', c' = Stats.fit_power xs ys in
        feq ~eps:1e-6 e e' && feq ~eps:(1e-6 *. c) c c');
    Test.make ~name:"prng: subset has no duplicates"
      (int_range 1 40)
      (fun size ->
        let prng = Prng.create ~seed:size in
        let arr = Array.init 40 (fun i -> i) in
        let sub = Prng.subset prng ~size arr in
        let module IS = Set.Make (Int) in
        IS.cardinal (IS.of_list (Array.to_list sub)) = size);
    Test.make ~name:"hash: always lands in range"
      (pair (int_range 2 100) (int_range 0 9_999))
      (fun (range, x) ->
        let prng = Prng.create ~seed:(range + x) in
        let h = Kwise_hash.create prng ~independence:4 ~domain:10_000 ~range in
        let v = hash h x in
        v >= 0 && v < range);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "subset distinct" `Quick test_prng_subset;
          Alcotest.test_case "split determinism" `Quick
            test_prng_split_deterministic;
          Alcotest.test_case "split child differs" `Quick
            test_prng_split_child_differs_from_parent;
          Alcotest.test_case "parent stream after split" `Quick
            test_prng_parent_stream_after_split;
          Alcotest.test_case "streams match manual splits" `Quick
            test_prng_streams_match_manual_splits;
        ] );
      ( "kwise_hash",
        [
          Alcotest.test_case "range" `Quick test_hash_in_range;
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "uniformity" `Quick test_hash_roughly_uniform;
          Alcotest.test_case "pairwise collisions" `Slow test_hash_pairwise_collision_rate;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_hash_rejects_bad_arguments;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normalization" `Quick test_dist_normalization;
          Alcotest.test_case "sample frequencies" `Slow test_dist_sample_frequencies;
          Alcotest.test_case "sample_weights" `Slow test_dist_sample_weights_matches;
          Alcotest.test_case "tv distance" `Quick test_tv_distance;
          Alcotest.test_case "point mass" `Quick test_point_dist;
          Alcotest.test_case "kl zero mass" `Quick test_kl_zero_mass;
          Alcotest.test_case "kl" `Quick test_kl_properties;
          Alcotest.test_case "rejects bad weights" `Quick test_dist_rejects_bad_weights;
        ] );
      ( "stats",
        [
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "power fit" `Quick test_fit_power;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "error cases" `Quick test_stats_errors;
          Alcotest.test_case "empty inputs raise" `Quick
            test_stats_empty_inputs;
          Alcotest.test_case "singleton semantics" `Quick test_stats_singleton;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "cell formats" `Quick test_table_cell_formats;
        ] );
      ("properties", qsuite);
    ]
