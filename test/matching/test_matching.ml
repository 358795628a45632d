(* Tests for Cc_matching's placement DP on both margins, and for the
   references it is judged against (reference.ml): Ryser permanents, the
   exact JVV sampler, the MCMC swap chain and the memoised DP. *)

module Permanent = Reference.Permanent
module Sampler = Reference.Sampler

(* The library's placement, with the k×k view the generic samplers take. *)
module Placement = struct
  include Cc_matching.Placement

  let dense = Reference.dense
end

module Prng = Cc_util.Prng
module Dist = Cc_util.Dist

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let random_weights prng k =
  Array.init k (fun _ -> Array.init k (fun _ -> 0.1 +. Prng.float prng 2.0))

(* Brute-force permanent for cross-checking Ryser. *)
let permanent_brute w =
  let k = Array.length w in
  let acc = ref 0.0 in
  let rec go j used prod =
    if j = k then acc := !acc +. prod
    else
      for i = 0 to k - 1 do
        if not used.(i) then begin
          used.(i) <- true;
          go (j + 1) used (prod *. w.(i).(j));
          used.(i) <- false
        end
      done
  in
  go 0 (Array.make k false) 1.0;
  !acc

(* --- Permanent --- *)

let test_ryser_known_values () =
  check_float "1x1" 7.0 (Permanent.ryser [| [| 7.0 |] |]);
  check_float "2x2" 10.0 (Permanent.ryser [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  (* All-ones k x k has permanent k!. *)
  let ones k = Array.make_matrix k k 1.0 in
  check_float "3x3 ones" 6.0 (Permanent.ryser (ones 3));
  check_float "5x5 ones" 120.0 (Permanent.ryser (ones 5));
  (* Identity has permanent 1. *)
  let eye k = Array.init k (fun i -> Array.init k (fun j -> if i = j then 1.0 else 0.0)) in
  check_float "identity" 1.0 (Permanent.ryser (eye 6))

let test_ryser_matches_brute_force () =
  let prng = Prng.create ~seed:1 in
  for k = 1 to 6 do
    let w = random_weights prng k in
    check_float ~eps:1e-8
      (Printf.sprintf "k=%d" k)
      (permanent_brute w) (Permanent.ryser w)
  done

let test_minor () =
  let w = [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |]; [| 7.0; 8.0; 9.0 |] |] in
  let m = Permanent.minor w ~skip_row:1 ~skip_col:0 in
  Alcotest.(check bool) "minor" true (m = [| [| 2.0; 3.0 |]; [| 8.0; 9.0 |] |])

let test_matching_weight () =
  let w = [| [| 2.0; 3.0 |]; [| 5.0; 7.0 |] |] in
  check_float "identity matching" 14.0 (Permanent.matching_weight w [| 0; 1 |]);
  check_float "swap matching" 15.0 (Permanent.matching_weight w [| 1; 0 |])

(* --- samplers vs exact distribution --- *)

let empirical_tv_against_exact sampler w trials seed =
  let assignments, probs = Sampler.exact_distribution w in
  let index = Hashtbl.create 64 in
  List.iteri (fun i a -> Hashtbl.add index a i) assignments;
  let counts = Array.make (List.length assignments) 0 in
  let prng = Prng.create ~seed in
  for _ = 1 to trials do
    let sigma = sampler prng w in
    let i = Hashtbl.find index sigma in
    counts.(i) <- counts.(i) + 1
  done;
  Dist.tv_counts ~counts (Dist.of_weights probs)

let test_exact_sampler_distribution () =
  let prng = Prng.create ~seed:2 in
  let w = random_weights prng 4 in
  let tv = empirical_tv_against_exact Sampler.exact w 30_000 3 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f" tv) true (tv < 0.03)

let test_exact_sampler_skewed_weights () =
  (* Strongly skewed weights: the diagonal matching dominates. *)
  let k = 4 in
  let w =
    Array.init k (fun i ->
        Array.init k (fun j -> if i = j then 100.0 else 0.01))
  in
  let prng = Prng.create ~seed:4 in
  let diag = Array.init k (fun j -> j) in
  let hits = ref 0 in
  for _ = 1 to 200 do
    if Sampler.exact prng w = diag then incr hits
  done;
  Alcotest.(check bool) "diagonal dominates" true (!hits > 190)

let test_mcmc_distribution () =
  let prng = Prng.create ~seed:5 in
  let w = random_weights prng 4 in
  let tv =
    empirical_tv_against_exact
      (fun prng w -> Sampler.mcmc prng w ~steps:2000)
      w 30_000 6
  in
  Alcotest.(check bool) (Printf.sprintf "mcmc tv %.4f" tv) true (tv < 0.05)

let test_mcmc_zero_steps_is_uniform_start () =
  (* steps = 0 returns the random initial permutation — a sanity check that
     the chain starts uniform, not degenerate. *)
  let prng = Prng.create ~seed:7 in
  let w = [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 100 do
    Hashtbl.replace seen (Sampler.mcmc prng w ~steps:0) ()
  done;
  Alcotest.(check int) "both permutations appear" 2 (Hashtbl.length seen)

let test_auto_dispatch () =
  let prng = Prng.create ~seed:8 in
  let small = random_weights prng 3 in
  let sigma = Sampler.sample prng small in
  Alcotest.(check int) "valid permutation (small)" 3
    (List.length (List.sort_uniq compare (Array.to_list sigma)));
  let large = random_weights prng 16 in
  let sigma = Sampler.sample prng large in
  Alcotest.(check int) "valid permutation (large)" 16
    (List.length (List.sort_uniq compare (Array.to_list sigma)))

let test_exact_rejects_bad_weights () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Matching.Sampler: weights must be nonnegative")
    (fun () -> ignore (Sampler.exact (Prng.create ~seed:9) [| [| -1.0 |] |]));
  (* All-zero (infeasible) instances are rejected at sampling time. *)
  Alcotest.check_raises "infeasible"
    (Invalid_argument "Dist.sample_weights: all weights are zero")
    (fun () -> ignore (Sampler.exact (Prng.create ~seed:9) [| [| 0.0 |] |]))

let test_exact_handles_sparse_support () =
  (* Zero weights restrict the support: only two matchings are feasible and
     their odds are 2:3. *)
  let w = [| [| 2.0; 0.0; 1.0 |]; [| 0.0; 1.0; 0.0 |]; [| 3.0; 0.0; 2.0 |] |] in
  (* Feasible: (0,1,2) with weight 2*1*2=4 and (2,1,0) with weight 3*1*1=3. *)
  let prng = Prng.create ~seed:21 in
  let counts = Hashtbl.create 4 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let sigma = Sampler.exact prng w in
    Hashtbl.replace counts sigma
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts sigma))
  done;
  Alcotest.(check int) "two feasible matchings" 2 (Hashtbl.length counts);
  let c1 = Hashtbl.find counts [| 0; 1; 2 |] in
  let freq = float_of_int c1 /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "P(id matching) %.3f ~ 4/7" freq)
    true
    (Float.abs (freq -. (4.0 /. 7.0)) < 0.02)

let test_mcmc_sparse_support_with_init () =
  let w = [| [| 2.0; 0.0; 1.0 |]; [| 0.0; 1.0; 0.0 |]; [| 3.0; 0.0; 2.0 |] |] in
  let prng = Prng.create ~seed:22 in
  let hits = ref 0 in
  let trials = 10_000 in
  for _ = 1 to trials do
    let sigma = Sampler.mcmc ~init:[| 0; 1; 2 |] prng w ~steps:50 in
    if sigma = [| 0; 1; 2 |] then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "P(id matching) %.3f ~ 4/7" freq)
    true
    (Float.abs (freq -. (4.0 /. 7.0)) < 0.03)

(* --- Placement --- *)

let figure_identities = [| 4; 5; 4; 5; 6 |]

let figure_instance () =
  (* Mirrors Figure 1: identities with repeats, positions with repeated
     (p,q) pairs. *)
  Placement.build ~identities:figure_identities
    ~positions:[| (1, 3); (3, 2); (2, 1); (1, 2); (1, 3) |]
    ~weight:(fun ~v ~p ~q ->
      (* Any positive deterministic function of (v,p,q). *)
      1.0 /. float_of_int ((v * 7) + (p * 3) + q + 1))

let test_placement_build () =
  let t = figure_instance () in
  let w = Placement.dense t in
  Alcotest.(check int) "square" 5 (Array.length w);
  Array.iter (fun row -> Alcotest.(check int) "row length" 5 (Array.length row)) w;
  check_float "weight of identity 4 at (1,3)" (1.0 /. 35.0) w.(0).(4);
  Alcotest.(check int) "dp_states" (3 * 2 * 2 * 2) (Placement.dp_states t)

let test_placement_exact_is_valid_matching () =
  let prng = Prng.create ~seed:10 in
  let t = figure_instance () in
  for _ = 1 to 50 do
    let sigma = Placement.sample_exact prng t in
    Alcotest.(check int) "permutation" 5
      (List.length (List.sort_uniq compare (Array.to_list sigma)))
  done

(* Total variation between the laws of [key] under two samplers, 20,000
   draws each. *)
let histogram_tv key sampler_a seed_a sampler_b seed_b =
  let histo sampler trials seed =
    let prng = Prng.create ~seed in
    let h = Hashtbl.create 64 in
    for _ = 1 to trials do
      let p = key (sampler prng) in
      Hashtbl.replace h p (1 + Option.value ~default:0 (Hashtbl.find_opt h p))
    done;
    h
  in
  let trials = 20_000 in
  let h1 = histo sampler_a trials seed_a in
  let h2 = histo sampler_b trials seed_b in
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) h1 []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) h2 [])
  in
  0.5
  *. List.fold_left
       (fun acc k ->
         let c1 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h1 k)) in
         let c2 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h2 k)) in
         acc +. Float.abs ((c1 -. c2) /. float_of_int trials))
       0.0 keys

(* Identities are interchangeable, so the observable of a figure draw is its
   profile: which identity sits at each position. *)
let figure_profile sigma = Array.map (fun i -> figure_identities.(i)) sigma

let test_placement_matches_generic_exact () =
  (* The class-compressed sampler must induce the same distribution over
     (identity at position) profiles as the generic exact sampler. *)
  let t = figure_instance () in
  let tv =
    histogram_tv figure_profile
      (fun prng -> Placement.sample_exact prng t)
      11
      (fun prng -> Sampler.exact prng (Placement.dense t))
      12
  in
  Alcotest.(check bool) (Printf.sprintf "profile tv %.4f" tv) true (tv < 0.05)

let test_placement_rows_match_generic_exact () =
  (* The figure's identities have multiplicities 2, 2, 1 (18 row states,
     3 choices each) and its positions classes of 2, 1, 1, 1 (24 states,
     4 choices), so the walk places it on the row margin. *)
  let t = figure_instance () in
  Alcotest.(check bool) "row margin chosen" true
    (Placement.cheaper ~max_states:50_000 t = Some Placement.Rows);
  (* Six identities of five at six pairs of five: 6^6 states and 6 choices
     on either margin, and a tie runs the class margin. *)
  let tie =
    Placement.build
      ~identities:(Array.init 30 (fun i -> i mod 6))
      ~positions:(Array.init 30 (fun j -> (j / 5, 0)))
      ~weight:(fun ~v:_ ~p:_ ~q:_ -> 1.0)
  in
  Alcotest.(check bool) "tie runs the class margin" true
    (Placement.cheaper ~max_states:50_000 tie = Some Placement.Classes);
  let tv =
    histogram_tv figure_profile
      (fun prng -> Placement.sample_exact ~margin:Placement.Rows prng t)
      15
      (fun prng -> Sampler.exact prng (Placement.dense t))
      16
  in
  Alcotest.(check bool) (Printf.sprintf "profile tv %.4f" tv) true (tv < 0.05);
  (* sigma itself, not only its profile: a row's instances go to the
     positions that chose it uniformly, so all 24 bijections of three equal
     identities and one other keep the generic sampler's law. *)
  let t =
    Placement.build ~identities:[| 3; 8; 3; 3 |]
      ~positions:[| (0, 1); (1, 2); (2, 3); (3, 4) |]
      ~weight:(fun ~v ~p ~q -> float_of_int (1 + ((v * p) + q) mod 4))
  in
  Alcotest.(check bool) "row margin chosen" true
    (Placement.cheaper ~max_states:50_000 t = Some Placement.Rows);
  let tv =
    histogram_tv Fun.id
      (fun prng -> Placement.sample_exact ~margin:Placement.Rows prng t)
      17
      (fun prng -> Sampler.exact prng (Placement.dense t))
      18
  in
  Alcotest.(check bool) (Printf.sprintf "matching tv %.4f" tv) true (tv < 0.05)

let test_placement_large_instance () =
  (* 60 instances over 3 identities and 3 position classes: far beyond
     Ryser's reach, easy for the DP. *)
  let prng = Prng.create ~seed:13 in
  let k = 60 in
  let identities = Array.init k (fun i -> i mod 3) in
  let positions = Array.init k (fun i -> ((i / 3) mod 3, 9)) in
  let t =
    Placement.build ~identities ~positions ~weight:(fun ~v ~p ~q ->
        float_of_int (1 + v + p + (q mod 2)))
  in
  let sigma = Placement.sample_exact ~max_states:2_000_000 prng t in
  Alcotest.(check int) "permutation" k
    (List.length (List.sort_uniq compare (Array.to_list sigma)))

let test_placement_state_bound () =
  (* All classes distinct: dp_states = 2^k, so the DP refuses before drawing
     anything, at the default bound and at an explicit one. 2^80 saturates
     instead of wrapping. *)
  let instance k =
    Placement.build
      ~identities:(Array.init k (fun i -> i))
      ~positions:(Array.init k (fun i -> (i, i + 1)))
      ~weight:(fun ~v ~p ~q -> 1.0 +. (float_of_int ((v + p + q) mod 5) /. 10.0))
  in
  Alcotest.(check int) "2^24 states" (1 lsl 24) (Placement.dp_states (instance 24));
  Alcotest.(check int) "saturated" max_int (Placement.dp_states (instance 80));
  let prng = Prng.create ~seed:14 and fresh = Prng.create ~seed:14 in
  let t = instance 24 in
  Alcotest.check_raises "default bound"
    (Invalid_argument "Placement.sample_exact: state space too large") (fun () ->
      ignore (Placement.sample_exact prng t));
  Alcotest.check_raises "explicit bound"
    (Invalid_argument "Placement.sample_exact: state space too large") (fun () ->
      ignore (Placement.sample_exact ~max_states:((1 lsl 24) - 1) prng t));
  Alcotest.(check int) "no draw consumed" (Prng.int fresh (1 lsl 30))
    (Prng.int prng (1 lsl 30))

let test_placement_over_cap_on_both_margins () =
  (* 24 distinct identities at 24 distinct pairs: 2^24 states on either
     margin, so neither is eligible under the walk's 50,000, and each
     refuses before drawing anything. *)
  let t =
    Placement.build
      ~identities:(Array.init 24 (fun i -> i))
      ~positions:(Array.init 24 (fun i -> (i, i + 1)))
      ~weight:(fun ~v ~p ~q -> 1.0 +. (float_of_int ((v + p + q) mod 5) /. 10.0))
  in
  Alcotest.(check int) "row states" (1 lsl 24) (Placement.dp_states ~margin:Rows t);
  Alcotest.(check bool) "no margin" true (Placement.cheaper ~max_states:50_000 t = None);
  let prng = Prng.create ~seed:17 and fresh = Prng.create ~seed:17 in
  List.iter
    (fun margin ->
      Alcotest.check_raises "over the cap"
        (Invalid_argument "Placement.sample_exact: state space too large")
        (fun () -> ignore (Placement.sample_exact ~max_states:50_000 ~margin prng t)))
    [ Placement.Classes; Placement.Rows ];
  Alcotest.(check int) "no draw consumed" (Prng.int fresh (1 lsl 30))
    (Prng.int prng (1 lsl 30))

let test_placement_dp_with_zero_weights () =
  (* Class-compressed DP on a sparse-support instance must match the exact
     distribution over identity profiles. Two identities, two position
     classes, identity 1 forbidden at the first class: feasible tables are
     constrained. *)
  let identities = [| 0; 0; 1; 1 |] in
  let positions = [| (0, 9); (0, 9); (1, 9); (1, 9) |] in
  let weight ~v ~p ~q =
    ignore q;
    if v = 1 && p = 0 then 0.0 else float_of_int (1 + v + (2 * p))
  in
  let t = Placement.build ~identities ~positions ~weight in
  (* Identity-1 instances can only sit at class (1,9): exactly one feasible
     profile: [0;0;1;1]. *)
  let prng = Prng.create ~seed:41 in
  for _ = 1 to 50 do
    let sigma = Placement.sample_exact prng t in
    let profile = Array.map (fun i -> identities.(i)) sigma in
    Alcotest.(check bool) "forced profile" true (profile = [| 0; 0; 1; 1 |])
  done

let test_placement_dp_sparse_distribution () =
  (* A sparse instance with two feasible profiles; compare DP frequencies
     with the brute-force law. Identities: one 0, one 1; positions classes
     (0,9) and (1,9); weight matrix [ [2; 1]; [0; 3] ]: profiles
     (0 at class0, 1 at class1): 2*3 = 6; (0 at class1, 1 at class0):
     infeasible (w(1,class0) = 0). So again forced... make both feasible:
     weights [ [2; 1]; [4; 3] ]: profile A = 2*3 = 6, profile B = 1*4 = 4. *)
  let identities = [| 0; 1 |] in
  let positions = [| (0, 9); (1, 9) |] in
  let weight ~v ~p ~q =
    ignore q;
    match (v, p) with
    | 0, 0 -> 2.0
    | 0, 1 -> 1.0
    | 1, 0 -> 4.0
    | _ -> 3.0
  in
  let t = Placement.build ~identities ~positions ~weight in
  let prng = Prng.create ~seed:42 in
  let trials = 20_000 in
  let a = ref 0 in
  for _ = 1 to trials do
    let sigma = Placement.sample_exact prng t in
    if sigma.(0) = 0 then incr a
  done;
  let freq = float_of_int !a /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "P(profile A) %.3f ~ 0.6" freq)
    true
    (Float.abs (freq -. 0.6) < 0.015)

(* A random instance: k <= 40 instances over at most 6 identities, positions
   over at most 6 (p,q) pairs, weights per (identity, pair) drawn from
   {0} U [1e-3, 1e3] (log-uniform). *)
let random_instance prng =
  let k = 1 + Prng.int prng 40 in
  let n_ids = 1 + Prng.int prng 6 in
  let identities = Array.init k (fun _ -> 10 * Prng.int prng n_ids) in
  let positions = Array.init k (fun _ -> (Prng.int prng 3, 5 + Prng.int prng 2)) in
  let table =
    Array.init 6 (fun _ ->
        Array.init 6 (fun _ ->
            if Prng.int prng 5 = 0 then 0.0
            else Float.pow 10.0 (Prng.float prng 6.0 -. 3.0)))
  in
  let weight ~v ~p ~q = table.(v / 10).((2 * p) + q - 5) in
  (identities, positions, weight)

(* Same sigma (or the same failure), and the same PRNG state afterwards. *)
let agrees_with_reference (identities, positions, weight) seed =
  let t = Placement.build ~identities ~positions ~weight in
  let r = Reference.build ~identities ~positions ~weight in
  let states = Placement.dp_states t in
  let run sample max_states =
    let prng = Prng.create ~seed in
    let result =
      match sample ~max_states prng with
      | sigma -> Ok sigma
      | exception Failure msg -> Error msg
    in
    (result, Array.init 4 (fun _ -> Prng.int prng (1 lsl 30)))
  in
  let rejects sample =
    match sample ~max_states:(states - 1) (Prng.create ~seed) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let ours ~max_states prng = Placement.sample_exact ~max_states prng t in
  let theirs ~max_states prng = Reference.sample_exact ~max_states prng r in
  states = Reference.dp_states r
  && Placement.dense t = r.Reference.weights
  && run ours states = run theirs states
  && rejects ours && rejects theirs

(* log z_classes + sum log (class size!) = log z_rows + sum log
   (multiplicity!): both are the log permanent, to 1e-9 relative (both
   neg_infinity on an infeasible instance). Up to k = 7 they also equal the
   log of the brute-force permanent of the dense instance. *)
let margins_agree (identities, positions, weight) =
  let t = Placement.build ~identities ~positions ~weight in
  let log_factorials keys =
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x)))
      keys;
    Hashtbl.fold
      (fun _ c acc ->
        let f = ref acc in
        for i = 2 to c do
          f := !f +. Float.log (float_of_int i)
        done;
        !f)
      counts 0.0
  in
  let by_classes = Placement.log_z ~margin:Classes t +. log_factorials positions in
  let by_rows = Placement.log_z ~margin:Rows t +. log_factorials identities in
  let close a b =
    (a = neg_infinity && b = neg_infinity)
    || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
  in
  close by_classes by_rows
  && (Array.length identities > 7
     || close by_classes (Float.log (permanent_brute (Placement.dense t))))

(* --- qcheck --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ryser matches brute force" ~count:50
      (make Gen.(pair (int_range 1 5) (int_range 0 100_000)))
      (fun (k, seed) ->
        let prng = Prng.create ~seed in
        let w = random_weights prng k in
        Float.abs (Permanent.ryser w -. permanent_brute w) < 1e-7);
    Test.make ~name:"exact sampler returns permutations" ~count:100
      (make Gen.(pair (int_range 1 7) (int_range 0 100_000)))
      (fun (k, seed) ->
        let prng = Prng.create ~seed in
        let w = random_weights prng k in
        let sigma = Sampler.exact prng w in
        List.length (List.sort_uniq compare (Array.to_list sigma)) = k);
    Test.make ~name:"mcmc preserves permutation invariant" ~count:100
      (make Gen.(pair (int_range 2 10) (int_range 0 100_000)))
      (fun (k, seed) ->
        let prng = Prng.create ~seed in
        let w = random_weights prng k in
        let sigma = Sampler.mcmc prng w ~steps:200 in
        List.length (List.sort_uniq compare (Array.to_list sigma)) = k);
    Test.make ~name:"placement exact returns permutations" ~count:50
      (make Gen.(pair (int_range 2 12) (int_range 0 100_000)))
      (fun (k, seed) ->
        let prng = Prng.create ~seed in
        let identities = Array.init k (fun i -> i mod 3) in
        let positions = Array.init k (fun i -> (i mod 2, 7)) in
        let t =
          Placement.build ~identities ~positions ~weight:(fun ~v ~p ~q ->
              0.5 +. float_of_int ((v + (2 * p) + q) mod 7))
        in
        let sigma = Placement.sample_exact prng t in
        List.length (List.sort_uniq compare (Array.to_list sigma)) = k);
    Test.make ~name:"placement margins compute one permanent" ~count:200
      (make Gen.(int_range 0 100_000))
      (fun shape -> margins_agree (random_instance (Prng.create ~seed:shape)));
    Test.make ~name:"placement DP matches the memoised reference" ~count:100
      (make Gen.(pair (int_range 0 100_000) (int_range 0 100_000)))
      (fun (shape, seed) ->
        agrees_with_reference (random_instance (Prng.create ~seed:shape)) seed);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_matching"
    [
      ( "permanent",
        [
          Alcotest.test_case "known values" `Quick test_ryser_known_values;
          Alcotest.test_case "matches brute force" `Quick test_ryser_matches_brute_force;
          Alcotest.test_case "minor" `Quick test_minor;
          Alcotest.test_case "matching weight" `Quick test_matching_weight;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "exact distribution" `Slow test_exact_sampler_distribution;
          Alcotest.test_case "skewed weights" `Quick test_exact_sampler_skewed_weights;
          Alcotest.test_case "mcmc distribution" `Slow test_mcmc_distribution;
          Alcotest.test_case "mcmc start" `Quick test_mcmc_zero_steps_is_uniform_start;
          Alcotest.test_case "auto dispatch" `Quick test_auto_dispatch;
          Alcotest.test_case "rejects bad weights" `Quick test_exact_rejects_bad_weights;
          Alcotest.test_case "sparse support exact" `Slow test_exact_handles_sparse_support;
          Alcotest.test_case "sparse support mcmc" `Slow test_mcmc_sparse_support_with_init;
        ] );
      ( "placement",
        [
          Alcotest.test_case "build" `Quick test_placement_build;
          Alcotest.test_case "valid matchings" `Quick test_placement_exact_is_valid_matching;
          Alcotest.test_case "matches generic exact" `Slow test_placement_matches_generic_exact;
          Alcotest.test_case "rows match generic exact" `Slow
            test_placement_rows_match_generic_exact;
          Alcotest.test_case "large instance" `Quick test_placement_large_instance;
          Alcotest.test_case "state bound" `Quick test_placement_state_bound;
          Alcotest.test_case "over the cap on both margins" `Quick
            test_placement_over_cap_on_both_margins;
          Alcotest.test_case "zero-weight DP" `Quick test_placement_dp_with_zero_weights;
          Alcotest.test_case "sparse DP law" `Slow test_placement_dp_sparse_distribution;
        ] );
      ("properties", qsuite);
    ]
