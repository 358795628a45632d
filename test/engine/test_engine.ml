(* Tests for Cc_engine, the deterministic multicore backend (DESIGN.md §10).

   The suite checks the scheduler contract directly (coverage, ordering,
   exception selection, pool lifecycle) and then the property the whole
   design exists for: algorithm output and flight-recorder digests are
   bit-identical whether a workload runs on the sequential engine or on a
   multi-domain pool. *)

module Prng = Cc_util.Prng
module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Net = Cc_clique.Net
module Sampler = Cc_sampler.Sampler
module Doubling = Cc_doubling.Doubling
module Recorder = Cc_obs.Recorder
module Mat = Cc_linalg.Mat

(* One shared pool for the whole suite: spawning domains per test case (and
   per QCheck iteration) would dominate the runtime. *)
let pool = Cc_engine.create ~domains:4 ()
let () = at_exit (fun () -> Cc_engine.shutdown pool)

(* --- construction and lifecycle --- *)

let test_create_one_is_sequential () =
  let e = Cc_engine.create ~domains:1 () in
  Alcotest.(check int) "domains" 1 (Cc_engine.domains e);
  Alcotest.(check bool) "not parallel" false (Cc_engine.is_parallel e);
  (* shutdown of the sequential engine is a no-op *)
  Cc_engine.shutdown e;
  Cc_engine.shutdown e

let test_create_rejects_nonpositive () =
  let expect_invalid d =
    match Cc_engine.create ~domains:d () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "domains:%d accepted" d
  in
  expect_invalid 0;
  expect_invalid (-1)

let test_parse_domains () =
  (match Cc_engine.parse_domains "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "parse 4");
  List.iter
    (fun s ->
      match Cc_engine.parse_domains s with
      | Error _ -> ()
      | Ok d -> Alcotest.failf "parse %S accepted as %d" s d)
    [ "0"; "-2"; "abc"; "" ]

let test_install_domains_messages () =
  let expect_error spec ~prefix =
    match Cc_engine.install_domains spec with
    | Ok () -> Alcotest.failf "accepted a bad count (expected %s...)" prefix
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S starts with %S" e prefix)
          true
          (String.starts_with ~prefix e);
        Alcotest.(check bool) "one line" false (String.contains e '\n')
  in
  List.iter
    (fun s -> expect_error (Some s) ~prefix:"--domains: ")
    [ "0"; "-2"; "abc"; ""; "  " ];
  (* A valid flag installs that engine as the process default. *)
  let before = Cc_engine.get () in
  Cc_engine.with_engine before (fun () ->
      Alcotest.(check bool) "valid flag accepted" true
        (Cc_engine.install_domains (Some "1") = Ok ());
      Alcotest.(check int) "installed" 1 (Cc_engine.domains (Cc_engine.get ())));
  Alcotest.(check bool) "default restored" true (Cc_engine.get () == before);
  (* Without the flag the variable is validated up front. The stdlib cannot
     unset a variable, so an unset one is restored to the count the lazy
     default would pick anyway. *)
  let restore =
    match Sys.getenv_opt Cc_engine.env_var with
    | Some v -> v
    | None -> string_of_int (Cc_engine.default_domains ())
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv Cc_engine.env_var restore)
    (fun () ->
      List.iter
        (fun v ->
          Unix.putenv Cc_engine.env_var v;
          expect_error None ~prefix:"CC_DOMAINS: ")
        [ "zero"; ""; "0" ];
      Unix.putenv Cc_engine.env_var "3";
      Alcotest.(check bool) "valid variable accepted" true
        (Cc_engine.install_domains None = Ok ()))

let test_shutdown_idempotent_and_degrades_inline () =
  let e = Cc_engine.create ~domains:3 () in
  Alcotest.(check bool) "parallel before" true (Cc_engine.is_parallel e);
  Cc_engine.shutdown e;
  Cc_engine.shutdown e;
  Alcotest.(check bool) "not parallel after" false (Cc_engine.is_parallel e);
  (* a shut-down pool must still compute correct results, inline *)
  let a = Cc_engine.parallel_map e 100 (fun i -> 3 * i) in
  Alcotest.(check (array int)) "inline results" (Array.init 100 (fun i -> 3 * i)) a

let test_with_engine_restores_default () =
  let before = Cc_engine.get () in
  let inside =
    Cc_engine.with_engine pool (fun () -> Cc_engine.domains (Cc_engine.get ()))
  in
  Alcotest.(check int) "inside" (Cc_engine.domains pool) inside;
  Alcotest.(check bool) "restored" true (Cc_engine.get () == before);
  (* restored on exception too *)
  (try
     Cc_engine.with_engine pool (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "restored after raise" true (Cc_engine.get () == before)

(* --- loop semantics --- *)

let test_parallel_for_covers_each_index_once () =
  let n = 1024 in
  let hits = Array.make n 0 in
  Cc_engine.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each index once" (Array.make n 1) hits;
  (* explicit chunk sizes, including ones that do not divide the range *)
  List.iter
    (fun chunk ->
      let hits = Array.make n 0 in
      Cc_engine.parallel_for ~chunk pool ~lo:0 ~hi:n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int))
        (Printf.sprintf "chunk %d" chunk)
        (Array.make n 1) hits)
    [ 1; 7; 1000; 5000 ]

let test_parallel_map_index_order () =
  let n = 501 in
  let expect = Array.init n (fun i -> (i * i) + 7) in
  Alcotest.(check (array int))
    "pool" expect
    (Cc_engine.parallel_map pool n (fun i -> (i * i) + 7));
  Alcotest.(check (array int))
    "sequential" expect
    (Cc_engine.parallel_map Cc_engine.sequential n (fun i -> (i * i) + 7));
  Alcotest.(check (array int))
    "empty" [||]
    (Cc_engine.parallel_map pool 0 (fun i -> i))

let test_exception_propagates_smallest_index_wins () =
  (* chunk:1 makes every index its own chunk, so the deterministic-selection
     rule pins which of the two failures must surface. *)
  let boom i = Failure (Printf.sprintf "boom-%d" i) in
  (match
     Cc_engine.parallel_for ~chunk:1 pool ~lo:0 ~hi:64 (fun i ->
         if i = 17 || i = 41 then raise (boom i))
   with
  | exception Failure msg -> Alcotest.(check string) "smallest" "boom-17" msg
  | () -> Alcotest.fail "no exception propagated");
  (* the pool survives a failed region *)
  let a = Cc_engine.parallel_map pool 64 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool reusable" (Array.init 64 (fun i -> i + 1)) a

(* --- determinism across domain counts --- *)

let build_graph ~seed ~n =
  Gen.build (Prng.create ~seed) (Gen.family_of_string "lollipop") ~n

(* Mirror of the [cctree sample --record] workload: run the Theorem 2
   sampler with the flight recorder attached and return the sampled tree
   plus the digest of the recorded event stream. *)
let sampler_run engine ~seed ~n =
  Cc_engine.with_engine engine (fun () ->
      let prng = Prng.create ~seed in
      let g = build_graph ~seed:(seed + 1) ~n in
      let net = Net.create ~n:(Graph.n g) in
      let recorder = Recorder.create ~machines:(Graph.n g) () in
      ignore (Net.attach_recorder net recorder);
      let r = Sampler.sample net prng g in
      (List.sort compare (Tree.edges r.Sampler.tree), Recorder.digest_hex recorder))

let test_sampler_identical_across_domains () =
  let seq = sampler_run Cc_engine.sequential ~seed:11 ~n:24 in
  let par = sampler_run pool ~seed:11 ~n:24 in
  Alcotest.(check (list (pair int int))) "tree" (fst seq) (fst par);
  Alcotest.(check string) "recorder digest" (snd seq) (snd par)

let doubling_run engine ~seed ~n =
  Cc_engine.with_engine engine (fun () ->
      let prng = Prng.create ~seed in
      let g = build_graph ~seed:(seed + 1) ~n in
      let net = Net.create ~n:(Graph.n g) in
      let tree, steps = Doubling.sample_tree net prng g ~tau0:(Graph.n g) in
      (List.sort compare (Tree.edges tree), steps))

let test_doubling_identical_across_domains () =
  let seq = doubling_run Cc_engine.sequential ~seed:7 ~n:20 in
  let par = doubling_run pool ~seed:7 ~n:20 in
  Alcotest.(check (list (pair int int))) "tree" (fst seq) (fst par);
  Alcotest.(check int) "steps" (snd seq) (snd par)

(* A 40x40 product is above [Mat.par_threshold] (40^3 > 2^15), so the pool
   run really takes the parallel path in [Mat.mul]. *)
let mat_run engine ~seed =
  Cc_engine.with_engine engine (fun () ->
      let prng = Prng.create ~seed in
      let dim = 40 in
      let a =
        Mat.init ~rows:dim ~cols:dim (fun _ _ -> Prng.float prng 1.0)
      in
      Mat.mul a a)

let test_mat_mul_bit_identical () =
  let seq = mat_run Cc_engine.sequential ~seed:3 in
  let par = mat_run pool ~seed:3 in
  Alcotest.(check (float 0.0)) "max abs diff" 0.0 (Mat.max_abs_diff seq par)

let qcheck_tests =
  [
    QCheck.Test.make ~count:8
      ~name:"engine: doubling trees identical at 1 vs 4 domains"
      QCheck.(int_range 1 10_000)
      (fun seed ->
        doubling_run Cc_engine.sequential ~seed ~n:16
        = doubling_run pool ~seed ~n:16);
    QCheck.Test.make ~count:8
      ~name:"engine: Mat.mul bit-identical at 1 vs 4 domains"
      QCheck.(int_range 1 10_000)
      (fun seed ->
        Mat.max_abs_diff (mat_run Cc_engine.sequential ~seed) (mat_run pool ~seed)
        = 0.0);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_engine"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "domains=1 is sequential" `Quick
            test_create_one_is_sequential;
          Alcotest.test_case "rejects domains < 1" `Quick
            test_create_rejects_nonpositive;
          Alcotest.test_case "parse_domains" `Quick test_parse_domains;
          Alcotest.test_case "install_domains messages" `Quick
            test_install_domains_messages;
          Alcotest.test_case "shutdown idempotent, degrades inline" `Quick
            test_shutdown_idempotent_and_degrades_inline;
          Alcotest.test_case "with_engine restores default" `Quick
            test_with_engine_restores_default;
        ] );
      ( "loops",
        [
          Alcotest.test_case "parallel_for covers each index once" `Quick
            test_parallel_for_covers_each_index_once;
          Alcotest.test_case "parallel_map index order" `Quick
            test_parallel_map_index_order;
          Alcotest.test_case "exception: smallest chunk index wins" `Quick
            test_exception_propagates_smallest_index_wins;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sampler output and digest" `Quick
            test_sampler_identical_across_domains;
          Alcotest.test_case "doubling tree and steps" `Quick
            test_doubling_identical_across_domains;
          Alcotest.test_case "Mat.mul bit-identical" `Quick
            test_mat_mul_bit_identical;
        ] );
      ("properties", qsuite);
    ]
