(* Tests for the fault-injection subsystem: deterministic seeded schedules,
   the reliable-delivery layer (ack + bounded retransmission), crash-stop
   semantics, and the recovery accounting. Runs under the @faults alias
   (wired into the default runtest). *)

module Net = Cc_clique.Net
module Fault = Cc_clique.Fault

let mk ?(n = 8) spec = Net.with_faults (Fault.create spec) (Net.create ~n)

(* A fault state whose schedule crashes [machines] at round 0, fired. *)
let crashed machines =
  let f = Fault.create (Fault.spec ~crashes:(List.map (fun m -> (m, 0.0)) machines) ()) in
  Fault.advance f ~now:0.0;
  f

let ring n words =
  List.init n (fun i -> { Net.src = i; dst = (i + 1) mod n; words })

let delivery = Alcotest.testable
    (Fmt.of_to_string (function
      | Net.Delivered -> "Delivered"
      | Net.Corrupted -> "Corrupted"
      | Net.Lost -> "Lost"))
    ( = )

(* --- determinism --- *)

let run_once ~seed =
  let net = mk (Fault.spec ~drop_prob:0.2 ~corrupt_prob:0.05 ~seed ()) in
  let dv = ref [] in
  for _ = 1 to 5 do
    dv := Array.to_list (Net.reliable_exchange net ~label:"x" (ring 8 3)) @ !dv
  done;
  (!dv, Net.ledger net, Net.retransmits net, Net.dropped net, Net.rounds net)

let test_same_seed_identical () =
  let a = run_once ~seed:42 and b = run_once ~seed:42 in
  let dv_a, ledger_a, rt_a, dr_a, r_a = a and dv_b, ledger_b, rt_b, dr_b, r_b = b in
  Alcotest.(check (list delivery)) "verdicts" dv_a dv_b;
  Alcotest.(check int) "retransmits" rt_a rt_b;
  Alcotest.(check int) "dropped" dr_a dr_b;
  Alcotest.(check (float 0.0)) "rounds" r_a r_b;
  Alcotest.(check bool) "ledger" true (ledger_a = ledger_b)

let test_different_seed_differs () =
  (* Not a guarantee for every pair, but seeds 42/43 at these rates diverge;
     a regression that ignores the seed would make them collide. *)
  let dv_a, _, _, _, _ = run_once ~seed:42 and dv_b, _, _, _, _ = run_once ~seed:43 in
  Alcotest.(check bool) "some verdict differs" true (dv_a <> dv_b)

(* --- reliable delivery under drops --- *)

let test_drops_are_retransmitted () =
  let net = mk (Fault.spec ~drop_prob:0.3 ~seed:1 ()) in
  let dv = Net.reliable_exchange net ~label:"place" (ring 8 4) in
  Array.iter (Alcotest.check delivery "delivered" Net.Delivered) dv;
  Alcotest.(check bool) "some packet was dropped" true (Net.dropped net > 0);
  Alcotest.(check bool) "and retransmitted" true (Net.retransmits net > 0);
  Alcotest.(check bool) "overhead metered" true (Net.overhead_rounds net > 0.0);
  let labels = List.map (fun (l, _, _, _) -> l) (Net.ledger net) in
  Alcotest.(check bool) "retry label present" true
    (List.mem "place:retry" labels)

let test_retry_budget_exhaustion () =
  (* With 0 retries every dropped packet is immediately Lost. *)
  let net = mk (Fault.spec ~drop_prob:0.5 ~max_retries:0 ~seed:3 ()) in
  let dv = Net.reliable_exchange net ~label:"x" (ring 8 2) in
  let lost = Array.exists (( = ) Net.Lost) dv in
  Alcotest.(check bool) "some packet lost at budget 0" true lost;
  Alcotest.(check int) "nothing retransmitted" 0 (Net.retransmits net)

let test_fault_free_net_is_reliable () =
  let net = Net.create ~n:4 in
  let dv = Net.reliable_exchange net ~label:"x" (ring 4 2) in
  Array.iter (Alcotest.check delivery "delivered" Net.Delivered) dv;
  Alcotest.(check int) "no retransmits" 0 (Net.retransmits net)

let test_free_packets_always_delivered () =
  (* src = dst and zero-word packets bypass the injector entirely. *)
  let net = mk (Fault.spec ~drop_prob:0.9 ~max_retries:0 ~seed:5 ()) in
  let dv =
    Net.reliable_exchange net ~label:"x"
      [ { Net.src = 2; dst = 2; words = 50 }; { Net.src = 0; dst = 1; words = 0 } ]
  in
  Array.iter (Alcotest.check delivery "delivered" Net.Delivered) dv;
  Alcotest.(check int) "no drops" 0 (Net.dropped net)

(* --- crash-stop --- *)

let test_crash_loses_packets_no_exception () =
  let net = Net.with_faults (crashed [ 3 ]) (Net.create ~n:8) in
  let dv = Net.reliable_exchange net ~label:"x" (ring 8 2) in
  (* Ring packets 2->3 and 3->4 touch the crashed machine. *)
  Alcotest.check delivery "into crashed" Net.Lost dv.(2);
  Alcotest.check delivery "out of crashed" Net.Lost dv.(3);
  Alcotest.check delivery "unrelated" Net.Delivered dv.(0);
  Alcotest.(check int) "both counted dropped" 2 (Net.dropped net)

let test_scheduled_crash_fires_at_round_boundary () =
  let f = Fault.create (Fault.spec ~crashes:[ (2, 5.0) ] ()) in
  let net = Net.with_faults f (Net.create ~n:4) in
  Alcotest.(check bool) "alive initially" false (Fault.is_crashed f 2);
  Net.exchange net ~label:"x" [ { Net.src = 0; dst = 1; words = 4 * 4 } ];
  (* 16 words to one machine over n=4: 4 rounds booked, still < 5. *)
  Alcotest.(check bool) "alive at round 4" false (Fault.is_crashed f 2);
  Net.exchange net ~label:"x" [ { Net.src = 0; dst = 1; words = 4 * 4 } ];
  Alcotest.(check bool) "crashed at round 8" true (Fault.is_crashed f 2);
  Alcotest.(check (list int)) "crash list" [ 2 ] (Fault.crashed f)

let test_crash_outside_net_rejected () =
  (* A schedule naming a machine the net does not have is a caller error,
     not a crash that silently never fires. *)
  let arm crashes =
    Net.with_faults (Fault.create (Fault.spec ~crashes ())) (Net.create ~n:4)
  in
  Alcotest.check_raises "machine n"
    (Invalid_argument
       "Net.with_faults: crash of machine 4, outside the clique [0, 4)")
    (fun () -> ignore (arm [ (1, 0.0); (4, 2.0) ]));
  ignore (arm [ (3, 0.0) ])

let test_reliable_broadcast_crashed_source () =
  let net = Net.with_faults (crashed [ 1 ]) (Net.create ~n:4) in
  let dv = Net.reliable_broadcast net ~label:"seed" ~src:1 ~words:3 in
  Alcotest.check delivery "own slot" Net.Delivered dv.(1);
  List.iter
    (fun d -> Alcotest.check delivery "recipient lost" Net.Lost dv.(d))
    [ 0; 2; 3 ]

let test_reliable_broadcast_heals_drops () =
  let net = mk ~n:8 (Fault.spec ~drop_prob:0.3 ~seed:9 ()) in
  let dv = Net.reliable_broadcast net ~label:"seed" ~src:0 ~words:5 in
  Array.iter (Alcotest.check delivery "delivered" Net.Delivered) dv

let test_next_live () =
  let f = crashed [ 2; 3 ] in
  Alcotest.(check (option int)) "skips crashed" (Some 4) (Fault.next_live f ~n:5 2);
  Alcotest.(check (option int)) "wraps" (Some 0) (Fault.next_live f ~n:4 2);
  Alcotest.(check (option int)) "all dead" None
    (Fault.next_live (crashed [ 0; 1; 2; 3; 4 ]) ~n:5 0)

(* The documented contract: with every machine of [0, n) crashed, next_live
   is None for *every* start index — in range, negative, or past n — and
   out-of-range machines in the crash set must not fool the early exit. *)
let test_next_live_all_crashed_all_starts () =
  let n = 5 in
  let f = crashed (List.init n Fun.id) in
  for from = -2 * n to 2 * n do
    Alcotest.(check (option int))
      (Printf.sprintf "all crashed, from=%d" from)
      None
      (Fault.next_live f ~n from)
  done;
  (* Crashing a machine outside [0, n) must not change the verdict at a
     smaller n where the rest are live. *)
  let g = crashed [ 7; 1 ] (* 7 is out of range for n=4 *) in
  for from = -4 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "survivors remain, from=%d" from)
      true
      (Fault.next_live g ~n:4 from <> None)
  done;
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Fault.next_live: n must be positive") (fun () ->
      ignore (Fault.next_live f ~n:0 0))

(* --- corruption and stragglers --- *)

let test_corruption_surfaces_not_retried () =
  let net = mk (Fault.spec ~corrupt_prob:0.5 ~seed:2 ()) in
  let dv = Net.reliable_exchange net ~label:"x" (ring 8 6) in
  Alcotest.(check bool) "some corruption" true
    (Array.exists (( = ) Net.Corrupted) dv);
  (* Corruption is undetectable at the transport: no retransmissions. *)
  Alcotest.(check int) "no transport retries" 0 (Net.retransmits net)

let test_straggler_label () =
  let net = mk (Fault.spec ~straggle_prob:0.9 ~seed:4 ()) in
  for _ = 1 to 10 do
    ignore (Net.reliable_exchange net ~label:"x" (ring 8 2))
  done;
  let labels = List.map (fun (l, _, _, _) -> l) (Net.ledger net) in
  Alcotest.(check bool) "straggle label" true (List.mem "x:straggle" labels);
  Alcotest.(check bool) "straggle is overhead" true (Net.overhead_rounds net > 0.0)

(* --- accounting --- *)

let test_charge_overhead () =
  let net = Net.create ~n:4 in
  Net.charge_overhead net ~label:"recover:retry" 3.0;
  Alcotest.(check (float 0.0)) "booked" 3.0 (Net.rounds net);
  Alcotest.(check (float 0.0)) "counted" 3.0 (Net.overhead_rounds net)

let test_charge_rejects_non_finite () =
  (* An overflowed cost must not reach the ledger: the round clock would
     turn infinite and the recorder would log it as null. *)
  let net = Net.create ~n:4 in
  Net.charge net ~label:"ok" 1.0;
  List.iter
    (fun rounds ->
      match Net.charge net ~label:"bad" rounds with
      | () -> Alcotest.failf "charge of %g rounds accepted" rounds
      | exception Invalid_argument _ -> ())
    [ Float.infinity; Float.neg_infinity; Float.nan; -1.0 ];
  Alcotest.(check (float 0.0)) "nothing booked" 1.0 (Net.rounds net)

let test_health_classification () =
  let f = Fault.create (Fault.spec ()) in
  let before = Fault.snapshot f in
  Alcotest.(check bool) "healthy" true (Fault.health_of f ~before = Fault.Healthy);
  Fault.note_retransmit f 3;
  Fault.note_rerun f;
  (match Fault.health_of f ~before with
  | Fault.Healed { retransmits = 3; reroutes = 0; reruns = 1 } -> ()
  | h -> Alcotest.failf "unexpected health: %a" Fault.pp_health h);
  (* Counters before the snapshot don't leak into the next run's health. *)
  let before2 = Fault.snapshot f in
  Alcotest.(check bool) "healthy again" true
    (Fault.health_of f ~before:before2 = Fault.Healthy)

let test_spec_validation () =
  Alcotest.check_raises "drop prob 1"
    (Invalid_argument "Fault.create: drop_prob must be in [0, 1)") (fun () ->
      ignore (Fault.create (Fault.spec ~drop_prob:1.0 ())));
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Fault.create: max_retries < 0") (fun () ->
      ignore (Fault.create (Fault.spec ~max_retries:(-1) ())))

(* --- qcheck: the reliable layer never loses a packet while any retry
   budget remains and no machine is crashed --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"no Lost without crashes (ample retry budget)" ~count:100
      (make Gen.(triple (int_range 2 12) (int_range 0 60) (int_range 0 9999)))
      (fun (n, pct, seed) ->
        let drop_prob = float_of_int pct /. 100.0 in
        (* P(lost) = drop^(retries+1) <= 0.6^31 ~ 1e-7 per packet. *)
        let net = mk ~n (Fault.spec ~drop_prob ~max_retries:30 ~seed ()) in
        let packets =
          List.init (3 * n) (fun i ->
              { Net.src = i mod n; dst = (i + 1 + (i / n)) mod n; words = 1 + (i mod 3) })
        in
        let dv = Net.reliable_exchange net ~label:"q" packets in
        Array.for_all (fun d -> d <> Net.Lost) dv);
    Test.make ~name:"fault verdicts deterministic in the seed" ~count:50
      (make Gen.(pair (int_range 2 10) (int_range 0 9999)))
      (fun (n, seed) ->
        let go () =
          let net = mk ~n (Fault.spec ~drop_prob:0.25 ~corrupt_prob:0.1 ~seed ()) in
          ( Array.to_list (Net.reliable_exchange net ~label:"q" (ring n 2)),
            Net.rounds net, Net.retransmits net )
        in
        go () = go ());
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_fault"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
          Alcotest.test_case "different seed differs" `Quick test_different_seed_differs;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "drops retransmitted" `Quick test_drops_are_retransmitted;
          Alcotest.test_case "budget exhaustion" `Quick test_retry_budget_exhaustion;
          Alcotest.test_case "fault-free net" `Quick test_fault_free_net_is_reliable;
          Alcotest.test_case "free packets" `Quick test_free_packets_always_delivered;
          Alcotest.test_case "broadcast heals drops" `Quick test_reliable_broadcast_heals_drops;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash loses packets" `Quick test_crash_loses_packets_no_exception;
          Alcotest.test_case "scheduled crash" `Quick test_scheduled_crash_fires_at_round_boundary;
          Alcotest.test_case "crash outside the net rejected" `Quick
            test_crash_outside_net_rejected;
          Alcotest.test_case "crashed broadcast source" `Quick test_reliable_broadcast_crashed_source;
          Alcotest.test_case "next_live" `Quick test_next_live;
          Alcotest.test_case "next_live all crashed, any start" `Quick
            test_next_live_all_crashed_all_starts;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corruption surfaces" `Quick test_corruption_surfaces_not_retried;
          Alcotest.test_case "straggler label" `Quick test_straggler_label;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "charge_overhead" `Quick test_charge_overhead;
          Alcotest.test_case "charge rejects non-finite rounds" `Quick
            test_charge_rejects_non_finite;
          Alcotest.test_case "health classification" `Quick test_health_classification;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ("properties", qsuite);
    ]
