(* Tests for Cc_clique: Lenzen-routing round accounting, broadcast,
   aggregation, and the two matrix-multiplication backends. *)

module Net = Cc_clique.Net
module Profile = Cc_obs.Profile
module Recorder = Cc_obs.Recorder
module Fault = Cc_clique.Fault
module Matmul = Cc_clique.Matmul
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_rounds msg expected net =
  if not (feq expected (Net.rounds net)) then
    Alcotest.failf "%s: expected %.1f rounds, got %.1f" msg expected
      (Net.rounds net)

(* --- exchange --- *)

let test_single_message_one_round () =
  let net = Net.create ~n:8 in
  Net.exchange net ~label:"t" [ { Net.src = 0; dst = 1; words = 1 } ];
  check_rounds "single word" 1.0 net

let test_full_lenzen_load_one_round () =
  (* Every machine sends exactly n words spread over all destinations:
     Lenzen says O(1) rounds; our accounting books exactly 1. *)
  let n = 8 in
  let net = Net.create ~n in
  let packets = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then packets := { Net.src; dst; words = 1 } :: !packets
    done
  done;
  Net.exchange net ~label:"t" !packets;
  check_rounds "balanced all-to-all" 1.0 net

let test_hotspot_costs_linear_rounds () =
  (* Everyone sends n words to machine 0: machine 0 receives n*(n-1) words,
     needing ceil(n(n-1)/n) = n-1 rounds. This is the receiver bottleneck the
     doubling load balancer exists to avoid. *)
  let n = 8 in
  let net = Net.create ~n in
  let packets =
    List.init (n - 1) (fun i -> { Net.src = i + 1; dst = 0; words = n })
  in
  Net.exchange net ~label:"t" packets;
  check_rounds "hotspot" (float_of_int (n - 1)) net

let test_self_messages_free () =
  let net = Net.create ~n:4 in
  Net.exchange net ~label:"t" [ { Net.src = 2; dst = 2; words = 100 } ];
  check_rounds "self message" 0.0 net;
  Alcotest.(check int) "no words" 0 (Net.words net)

let test_exchange_validation () =
  let net = Net.create ~n:4 in
  Alcotest.check_raises "bad id"
    (Invalid_argument "Net.exchange: machine ID out of range") (fun () ->
      Net.exchange net ~label:"t" [ { Net.src = 0; dst = 9; words = 1 } ]);
  Alcotest.check_raises "negative"
    (Invalid_argument "Net.exchange: negative payload") (fun () ->
      Net.exchange net ~label:"t" [ { Net.src = 0; dst = 1; words = -1 } ])

let test_ledger_breakdown () =
  let net = Net.create ~n:4 in
  Net.exchange net ~label:"a" [ { Net.src = 0; dst = 1; words = 1 } ];
  Net.exchange net ~label:"b" [ { Net.src = 0; dst = 1; words = 8 } ];
  let ledger = Net.ledger net in
  Alcotest.(check int) "two labels" 2 (List.length ledger);
  let b_rounds =
    List.find_map (fun (l, r, _, _) -> if l = "b" then Some r else None) ledger
  in
  Alcotest.(check (option (float 0.001))) "b cost" (Some 2.0) b_rounds

let test_ledger_tie_order () =
  (* Equal-round labels must come out sorted by label, not Hashtbl order. *)
  let net = Net.create ~n:4 in
  List.iter
    (fun label -> Net.exchange net ~label [ { Net.src = 0; dst = 1; words = 1 } ])
    [ "zeta"; "alpha"; "mid" ];
  Alcotest.(check (list string)) "ties sorted by label"
    [ "alpha"; "mid"; "zeta" ]
    (List.map (fun (l, _, _, _) -> l) (Net.ledger net));
  (* Rounds still dominate the order. *)
  Net.exchange net ~label:"alpha" [ { Net.src = 0; dst = 1; words = 8 } ];
  Alcotest.(check string) "highest rounds first" "alpha"
    (match Net.ledger net with (l, _, _, _) :: _ -> l | [] -> "")

(* --- broadcast / all_to_all --- *)

let test_broadcast_small_payload () =
  let net = Net.create ~n:16 in
  Net.broadcast net ~label:"t" ~src:3 ~words:1;
  check_rounds "1 word broadcast" 1.0 net

let test_broadcast_large_payload () =
  let net = Net.create ~n:16 in
  Net.broadcast net ~label:"t" ~src:3 ~words:160;
  check_rounds "160 words over n=16" 10.0 net

let test_all_to_all () =
  let net = Net.create ~n:8 in
  Net.all_to_all net ~label:"t" ~words_each:3;
  check_rounds "3 words each" 3.0 net;
  Alcotest.(check int) "messages" (8 * 7) (Shared.messages net)

(* --- per-machine load profile (a bus subscriber) --- *)

(* A net with a load profile subscribed from its creation. *)
let profiled_net n =
  let net = Net.create ~n in
  let p = Profile.create ~machines:n in
  Net.add_sink net (Profile.add p);
  (net, p)

let test_skewed_exchange_imbalance () =
  (* One machine sends n words to each of the n-1 others and nothing flows
     back: its load is the whole run's traffic, so the imbalance factor must
     hit n (the worst case Lenzen routing can be handed). *)
  let n = 8 in
  let net, p = profiled_net n in
  Net.exchange net ~label:"skew"
    (List.init (n - 1) (fun i -> { Net.src = 0; dst = i + 1; words = n }));
  Alcotest.(check int) "hot machine carries everything" (n * (n - 1))
    (Profile.max_load p);
  Alcotest.(check (float 1e-9)) "imbalance = n" (float_of_int n)
    (Profile.imbalance p);
  Alcotest.(check string) "hot machine"
    "load: max 56  mean 7.0  p50 8.0  p95 39.2  imbalance 8.00  hot machine 0 (56 words)"
    (Shared.profile_summary p);
  Alcotest.(check int) "sender words" (n * (n - 1)) p.Profile.total_sent.(0);
  Alcotest.(check int) "receiver words" n p.Profile.total_recv.(1);
  (* The heatmap marks the hot machine's column. *)
  let rendered = Profile.render p in
  Alcotest.(check bool) "heatmap marks machine 0" true
    (let marker = "^ machine 0" in
     let rec contains i =
       i + String.length marker <= String.length rendered
       && (String.sub rendered i (String.length marker) = marker
          || contains (i + 1))
     in
     contains 0)

let test_balanced_all_to_all_imbalance () =
  (* Every machine carries exactly the mean: imbalance is exactly 1. *)
  let n = 8 in
  let net, p = profiled_net n in
  Net.all_to_all net ~label:"dense" ~words_each:3;
  Alcotest.(check int) "per-machine load" (3 * (n - 1)) (Profile.max_load p);
  Alcotest.(check (float 1e-9)) "imbalance = 1" 1.0 (Profile.imbalance p);
  Alcotest.(check string) "p50 = max (flat profile)"
    "load: max 21  mean 21.0  p50 21.0  p95 21.0  imbalance 1.00  hot machine 0 (21 words)"
    (Shared.profile_summary p)

let test_broadcast_attributes_source () =
  (* The source emits the payload once, every other machine takes a copy —
     so sends concentrate at the source while receive load is flat. *)
  let n = 16 in
  let net, p = profiled_net n in
  Net.broadcast net ~label:"bc" ~src:3 ~words:160;
  Alcotest.(check int) "source sends the payload" 160 p.Profile.total_sent.(3);
  Alcotest.(check int) "source receives nothing" 0 p.Profile.total_recv.(3);
  Alcotest.(check int) "others send nothing" 0 p.Profile.total_sent.(0);
  Alcotest.(check int) "receiver load" 160 p.Profile.total_recv.(0);
  Alcotest.(check int) "max load = payload" 160 (Profile.max_load p)

let test_sink_sees_max_load () =
  let n = 8 in
  let net = Net.create ~n in
  let seen = ref [] in
  Net.add_sink net (fun r -> seen := r.Recorder.max_load :: !seen);
  Net.exchange net ~label:"t"
    (List.init (n - 1) (fun i -> { Net.src = i + 1; dst = 0; words = n }));
  Net.charge net ~label:"free" 2.0;
  Alcotest.(check (list int)) "per-primitive loads (charge books none)"
    [ 0; n * (n - 1) ] !seen

let test_profile_does_not_perturb () =
  (* Subscribing a profile and reading it mid-run must leave the ledger
     bit-identical to a run that never looked. *)
  let drive peek =
    let n = 8 in
    let net = Net.create ~n in
    let p = Profile.create ~machines:n in
    if peek then Net.add_sink net (Profile.add p);
    Net.exchange net ~label:"a"
      (List.init (n - 1) (fun i -> { Net.src = 0; dst = i + 1; words = 3 }));
    if peek then ignore (Profile.render p);
    Net.broadcast net ~label:"b" ~src:2 ~words:40;
    if peek then ignore (Profile.render p);
    (Net.rounds net, Shared.messages net, Net.words net, Net.ledger net)
  in
  let bare = drive false and observed = drive true in
  Alcotest.(check bool) "ledger bit-identical" true (bare = observed)

(* --- words_for_bits --- *)

let test_words_for_bits () =
  let net = Net.create ~n:256 in
  (* word size = 8 bits at n=256. *)
  Alcotest.(check int) "0 bits" 0 (Net.words_for_bits net 0);
  Alcotest.(check int) "1 bit" 1 (Net.words_for_bits net 1);
  Alcotest.(check int) "8 bits" 1 (Net.words_for_bits net 8);
  Alcotest.(check int) "9 bits" 2 (Net.words_for_bits net 9);
  (* entry = log^2 n = 64 bits = 8 words. *)
  Alcotest.(check int) "entry words" 8 (Net.entry_words net)

(* --- Matmul --- *)

let random_stochastic prng n =
  Mat.normalize_rows (Mat.init ~rows:n ~cols:n (fun _ _ -> Prng.float prng 1.0 +. 0.01))

(* The rounds one [dim x dim] product books: a one-level power table books
   the base transpose, one product and its transpose, a zero-level one the
   base transpose alone. *)
let booked_rounds ~n backend ~dim =
  let rounds levels =
    let net = Net.create ~n in
    Matmul.book_power_table net backend ~dim ~levels;
    Net.rounds net
  in
  rounds 1 -. (2.0 *. rounds 0)

let test_matmul_backends_agree () =
  (* Every backend books an off-size product at its analytic cost; at
     dim = n the routed broadcast meters its real pattern, which costs more
     than the charged product. *)
  let n = 8 in
  List.iter
    (fun backend ->
      let net = Net.create ~n in
      Alcotest.(check (float 1e-9))
        (Matmul.backend_name backend ^ " off-size")
        (Matmul.mul_cost net backend ~dim:(2 * n))
        (booked_rounds ~n backend ~dim:(2 * n)))
    [ Matmul.charged (); Matmul.Routed_broadcast; Matmul.Routed_semiring ];
  Alcotest.(check bool) "charged is cheaper" true
    (booked_rounds ~n (Matmul.charged ()) ~dim:n
    < booked_rounds ~n Matmul.Routed_broadcast ~dim:n)

let test_matmul_charged_cost_scaling () =
  (* Charged cost must scale like n^alpha * entry_words. *)
  let cost n =
    let net = Net.create ~n in
    Matmul.mul_cost net (Matmul.charged ()) ~dim:n
  in
  let c64 = cost 64 and c256 = cost 256 in
  Alcotest.(check bool) "cost grows" true (c256 > c64);
  (* ratio = (256/64)^0.158 * (entry_words 256 / entry_words 64)
     = 4^0.158 * (8 / 5): at n=64 an entry is ceil(36/8) = 5 words,
     at n=256 it is ceil(64/8) = 8. *)
  let expected = ((256.0 /. 64.0) ** 0.158) *. (8.0 /. 5.0) in
  let ratio = c256 /. c64 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f ~ %.3f" ratio expected)
    true
    (Float.abs (ratio -. expected) < 0.2)

let test_matmul_routed_cost_linear () =
  let n = 16 in
  (* Each machine sends/receives (n-1) * n * entry_words words:
     rounds = ceil((n-1) * n * ew / n) = (n-1) * ew. *)
  let ew = Net.entry_words (Net.create ~n) in
  Alcotest.(check (float 1e-9)) "routed cost" (float_of_int ((n - 1) * ew))
    (booked_rounds ~n Matmul.Routed_broadcast ~dim:n)

let test_power_table_values () =
  let prng = Prng.create ~seed:3 in
  let n = 8 in
  let m = random_stochastic prng n in
  let table, _ = Matmul.power_table_pure m ~levels:3 in
  Alcotest.(check int) "length" 4 (Array.length table);
  Alcotest.(check bool) "m^8" true
    (Shared.mat_equal ~tol:1e-9 table.(3) (Mat.power m 8))

let test_power_table_books_rounds () =
  let n = 8 in
  let net = Net.create ~n in
  Matmul.book_power_table net (Matmul.charged ()) ~dim:n ~levels:5;
  (* 5 multiplications plus 6 transposes of one entry per machine pair. *)
  let per_mul = Matmul.mul_cost net (Matmul.charged ()) ~dim:n in
  Alcotest.(check (float 1e-9)) "muls and transposes"
    ((5.0 *. per_mul) +. (6.0 *. float_of_int (Net.entry_words net)))
    (Net.rounds net)

(* The lazy walk on K8: it mixes at rate (3/7)^k, so its table converges
   within a few levels. *)
let lazy_k8 () =
  Mat.half_lazy
    (Mat.init ~rows:8 ~cols:8 (fun i j -> if i = j then 0.0 else 1.0 /. 7.0))

let counter name =
  match Shared.metric name with
  | Some (Cc_obs.Metrics.Counter c) -> c
  | _ -> 0

let same_bits a b =
  let bits m = Array.map Int64.bits_of_float (Mat.data m) in
  bits a = bits b

let test_power_table_stop_books_every_level () =
  (* A table that stops squaring is still booked level by level:
     [book_power_table] books the same digest and rounds as the base
     transpose and 20 x (product; transpose) booked by hand, a charged
     product being one ["matmul"] charge of [mul_cost]. The pure table
     stops early, aliases its skipped levels to the stop and counts both. *)
  let n = 8 and levels = 20 in
  let backend = Matmul.charged () in
  let record f =
    let net = Net.create ~n in
    let r = Cc_obs.Recorder.create ~machines:n () in
    Net.add_sink net (Cc_obs.Recorder.add r);
    f net;
    (Cc_obs.Recorder.digest_hex r, Net.rounds net)
  in
  let d_table, r_table =
    record (fun net -> Matmul.book_power_table net backend ~dim:n ~levels)
  in
  let d_hand, r_hand =
    record (fun net ->
        let transpose () =
          Net.all_to_all net ~label:"power-table transpose"
            ~words_each:(Net.entry_words net)
        in
        transpose ();
        for _ = 1 to levels do
          Net.charge net ~label:"matmul" (Matmul.mul_cost net backend ~dim:n);
          transpose ()
        done)
  in
  Alcotest.(check string) "digest" d_hand d_table;
  Alcotest.(check (float 0.0)) "rounds" r_hand r_table;
  Cc_obs.Metrics.reset ();
  let table, mixed = Matmul.power_table_pure (lazy_k8 ()) ~levels in
  let muls = counter "matmul.muls" and skipped = counter "matmul.squarings_skipped" in
  let stop = levels - skipped in
  Alcotest.(check bool) "stops early" true (skipped > 0 && stop < 10);
  Alcotest.(check (option int)) "mixed at the stop" (Some stop) mixed;
  Alcotest.(check int) "computed levels" stop muls;
  for i = 1 to stop do
    Alcotest.(check bool) (Printf.sprintf "level %d is the squaring" i) true
      (same_bits table.(i) (Mat.mul table.(i - 1) table.(i - 1)))
  done;
  Alcotest.(check bool) "the stop level was computed" true
    (table.(stop) != table.(stop - 1));
  for i = stop + 1 to levels do
    Alcotest.(check bool) (Printf.sprintf "level %d aliases the stop" i) true
      (table.(i) == table.(stop))
  done

let test_power_table_pure_bits_is_rounded_squaring () =
  (* Under --bits only an exact repeat stops a table, so every level is the
     rounded power Lemma 3 defines: round after every squaring. J/8 repeats
     at level 1. The lazy K5 has dyadic entries, so it is stochastic after
     rounding and its rows soon agree, but the rounding keeps taking mass
     from each level until the zero matrix repeats; a rows test would stop
     it with mass still in it. *)
  let bits = 20 in
  List.iter
    (fun (name, m, levels) ->
      let table, mixed = Matmul.power_table_pure ~bits m ~levels in
      Alcotest.(check int) (name ^ ": length") (levels + 1) (Array.length table);
      Alcotest.(check (option int)) (name ^ ": no mixed level") None mixed;
      Array.iteri
        (fun i t ->
          if not (same_bits t (Cc_linalg.Fixed.rounded_power ~bits m (1 lsl i)))
          then Alcotest.failf "%s: level %d differs from the rounded power" name i)
        table;
      Alcotest.(check bool) (name ^ ": stops") true
        (table.(levels) == table.(levels - 1)))
    [
      ("J/8", Mat.create ~rows:8 ~cols:8 0.125, 10);
      ( "lazy K5",
        Mat.half_lazy
          (Mat.init ~rows:5 ~cols:5 (fun i j -> if i = j then 0.0 else 0.25)),
        40 );
    ]

let test_semiring_backend () =
  let n = 27 in
  let c = booked_rounds ~n (Matmul.charged ()) ~dim:n
  and s = booked_rounds ~n Matmul.Routed_semiring ~dim:n
  and r = booked_rounds ~n Matmul.Routed_broadcast ~dim:n in
  (* Cost ordering: charged (n^0.158) < semiring (n^1/3) < broadcast (n). *)
  Alcotest.(check bool)
    (Printf.sprintf "ordering %.0f < %.0f < %.0f" c s r)
    true
    (c < s && s < r)

let test_mul_cost_off_size () =
  let net = Net.create ~n:16 in
  let base = Matmul.mul_cost net (Matmul.charged ()) ~dim:16 in
  let double = Matmul.mul_cost net (Matmul.charged ()) ~dim:32 in
  Alcotest.(check (float 1e-9)) "2n costs 4x" (4.0 *. base) double;
  let small = Matmul.mul_cost net (Matmul.charged ()) ~dim:8 in
  Alcotest.(check (float 1e-9)) "small clamps to base" base small

(* --- qcheck --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"exchange rounds = ceil(max load / n)" ~count:200
      (make
         Gen.(
           pair (int_range 2 16)
             (list_size (int_range 1 50)
                (triple (int_range 0 15) (int_range 0 15) (int_range 0 20)))))
      (fun (n, raw) ->
        let packets =
          List.filter_map
            (fun (s, d, w) ->
              if s < n && d < n then Some { Net.src = s; dst = d; words = w }
              else None)
          raw
        in
        (* Force the free-packet edge cases into every instance: src = dst
           traffic (local memory) and zero-word packets cost nothing and
           count nothing. *)
        let packets =
          { Net.src = 0; dst = 0; words = 17 }
          :: { Net.src = 0; dst = n - 1; words = 0 }
          :: { Net.src = n - 1; dst = n - 1; words = 0 }
          :: packets
        in
        let net = Net.create ~n in
        Net.exchange net ~label:"t" packets;
        let sent = Array.make n 0 and recv = Array.make n 0 in
        let msgs = ref 0 and wtotal = ref 0 in
        List.iter
          (fun { Net.src; dst; words } ->
            if src <> dst && words > 0 then begin
              sent.(src) <- sent.(src) + words;
              recv.(dst) <- recv.(dst) + words;
              incr msgs;
              wtotal := !wtotal + words
            end)
          packets;
        let load = Array.fold_left max 0 (Array.append sent recv) in
        let expected = if load = 0 then 0.0 else float_of_int ((load + n - 1) / n) in
        feq expected (Net.rounds net)
        && Shared.messages net = !msgs
        && Net.words net = !wtotal);
  ]

(* --- event bus (add_sink) --- *)

let test_add_sink_ordering () =
  let net = Net.create ~n:4 in
  let order = ref [] in
  Net.add_sink net (fun _ -> order := "a" :: !order);
  Net.add_sink net (fun _ -> order := "b" :: !order);
  Net.exchange net ~label:"t" [ { Net.src = 0; dst = 1; words = 1 } ];
  Alcotest.(check (list string))
    "subscription order preserved" [ "a"; "b" ] (List.rev !order)

let test_event_per_machine_words () =
  let n = 4 in
  let net = Net.create ~n in
  let events = ref [] in
  Net.add_sink net (fun (e : Recorder.record) ->
      events := (e.kind, e.sent, e.recv) :: !events);
  Net.exchange net ~label:"x"
    [ { Net.src = 0; dst = 1; words = 3 }; { Net.src = 2; dst = 1; words = 5 } ];
  Net.broadcast net ~label:"b" ~src:2 ~words:4;
  Net.charge net ~label:"free" 1.0;
  match List.rev !events with
  | [ (k1, s1, r1); (k2, s2, r2); (k3, s3, r3) ] ->
      Alcotest.(check string) "exchange kind" "exchange" k1;
      Alcotest.(check (array int)) "exchange sent" [| 3; 0; 5; 0 |] s1;
      Alcotest.(check (array int)) "exchange recv" [| 0; 8; 0; 0 |] r1;
      Alcotest.(check string) "broadcast kind" "broadcast" k2;
      Alcotest.(check (array int)) "broadcast sent" [| 0; 0; 4; 0 |] s2;
      Alcotest.(check (array int)) "broadcast recv" [| 4; 4; 0; 4 |] r2;
      Alcotest.(check string) "charge kind" "charge" k3;
      Alcotest.(check (array int)) "charge books no traffic" [||] s3;
      Alcotest.(check (array int)) "charge receives none" [||] r3
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

(* With no sink installed, an exchange counts its loads in arrays the net
   reuses: each call must book from its own packets alone, and a sink
   installed later must get arrays that no later exchange rewrites. *)
let test_exchange_loads_per_call () =
  let net = Net.create ~n:4 in
  Net.exchange net ~label:"x" [ { Net.src = 0; dst = 1; words = 9 } ];
  Net.exchange net ~label:"x" [ { Net.src = 2; dst = 3; words = 4 } ];
  Alcotest.(check (float 0.0)) "3 rounds, then 1" 4.0 (Net.rounds net);
  let events = ref [] in
  Net.add_sink net (fun e -> events := e :: !events);
  Net.exchange net ~label:"x" [ { Net.src = 0; dst = 1; words = 3 } ];
  Net.exchange net ~label:"x" [ { Net.src = 1; dst = 2; words = 5 } ];
  match List.rev !events with
  | [ e1; e2 ] ->
      Alcotest.(check (array int)) "first sent" [| 3; 0; 0; 0 |] e1.Recorder.sent;
      Alcotest.(check (array int)) "first recv" [| 0; 3; 0; 0 |] e1.Recorder.recv;
      Alcotest.(check (array int)) "second sent" [| 0; 5; 0; 0 |] e2.Recorder.sent;
      Alcotest.(check (array int)) "second recv" [| 0; 0; 5; 0 |] e2.Recorder.recv
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_invariant_clean_on_primitives () =
  let n = 6 in
  let net = Net.create ~n in
  let inv = Cc_obs.Invariant.create ~machines:n () in
  Net.add_sink net (fun r -> ignore (Cc_obs.Invariant.observe inv r));
  Net.exchange net ~label:"x"
    (List.init (n - 1) (fun i -> { Net.src = i; dst = i + 1; words = 2 }));
  Net.broadcast net ~label:"b" ~src:0 ~words:10;
  Net.all_to_all net ~label:"a" ~words_each:3;
  Net.charge net ~label:"c" 2.5;
  Alcotest.(check int) "no online violations" 0 (Cc_obs.Invariant.count inv);
  Alcotest.(check int) "ledger reconciles" 0
    (List.length (Net.ledger_violations net inv))

let test_invariant_clean_under_faults () =
  (* Reliable delivery heals drops with booked retransmissions; the
     invariant monitor must see every retry as an ordinary conserved
     exchange and the ledger must still reconcile. *)
  let n = 8 in
  let net =
    Net.with_faults
      (Fault.create (Fault.spec ~drop_prob:0.2 ~seed:13 ()))
      (Net.create ~n)
  in
  let inv = Cc_obs.Invariant.create ~machines:n () in
  Net.add_sink net (fun r -> ignore (Cc_obs.Invariant.observe inv r));
  for i = 0 to 19 do
    ignore
      (Net.reliable_exchange net ~label:"flaky"
         [ { Net.src = i mod n; dst = (i + 1) mod n; words = 4 } ])
  done;
  Alcotest.(check bool) "faults actually fired" true (Net.dropped net > 0);
  Alcotest.(check int) "no online violations under faults" 0
    (Cc_obs.Invariant.count inv);
  Alcotest.(check int) "ledger reconciles under faults" 0
    (List.length (Net.ledger_violations net inv))

let test_invariant_ledger_mismatch_detected () =
  (* An invariant attached after traffic has already been booked missed
     those events, so the end-of-run reconciliation must flag the gap. *)
  let n = 4 in
  let net = Net.create ~n in
  Net.exchange net ~label:"early" [ { Net.src = 0; dst = 1; words = 7 } ];
  let inv = Cc_obs.Invariant.create ~machines:n () in
  Net.add_sink net (fun r -> ignore (Cc_obs.Invariant.observe inv r));
  Net.exchange net ~label:"late" [ { Net.src = 2; dst = 3; words = 1 } ];
  let vs = Net.ledger_violations net inv in
  Alcotest.(check bool) "missed traffic detected" true (vs <> []);
  Alcotest.(check bool) "named a ledger violation" true
    (List.exists (fun v -> v.Cc_obs.Invariant.invariant = "ledger") vs)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_clique"
    [
      ( "exchange",
        [
          Alcotest.test_case "single message" `Quick test_single_message_one_round;
          Alcotest.test_case "balanced all-to-all" `Quick test_full_lenzen_load_one_round;
          Alcotest.test_case "hotspot" `Quick test_hotspot_costs_linear_rounds;
          Alcotest.test_case "self messages" `Quick test_self_messages_free;
          Alcotest.test_case "validation" `Quick test_exchange_validation;
          Alcotest.test_case "ledger" `Quick test_ledger_breakdown;
          Alcotest.test_case "ledger tie order" `Quick test_ledger_tie_order;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "broadcast small" `Quick test_broadcast_small_payload;
          Alcotest.test_case "broadcast large" `Quick test_broadcast_large_payload;
          Alcotest.test_case "all-to-all" `Quick test_all_to_all;
          Alcotest.test_case "words_for_bits" `Quick test_words_for_bits;
        ] );
      ( "profile",
        [
          Alcotest.test_case "skewed exchange" `Quick
            test_skewed_exchange_imbalance;
          Alcotest.test_case "balanced all-to-all" `Quick
            test_balanced_all_to_all_imbalance;
          Alcotest.test_case "broadcast source" `Quick
            test_broadcast_attributes_source;
          Alcotest.test_case "sink max_load" `Quick test_sink_sees_max_load;
          Alcotest.test_case "profile does not perturb" `Quick
            test_profile_does_not_perturb;
        ] );
      ( "event bus",
        [
          Alcotest.test_case "add_sink ordering + remove" `Quick
            test_add_sink_ordering;
          Alcotest.test_case "per-machine words on events" `Quick
            test_event_per_machine_words;
          Alcotest.test_case "exchange loads per call" `Quick
            test_exchange_loads_per_call;
          Alcotest.test_case "invariants clean on primitives" `Quick
            test_invariant_clean_on_primitives;
          Alcotest.test_case "invariants clean under faults" `Quick
            test_invariant_clean_under_faults;
          Alcotest.test_case "ledger mismatch detected" `Quick
            test_invariant_ledger_mismatch_detected;
        ] );
      ( "matmul",
        [
          Alcotest.test_case "backends agree" `Quick test_matmul_backends_agree;
          Alcotest.test_case "charged scaling" `Quick test_matmul_charged_cost_scaling;
          Alcotest.test_case "routed cost" `Quick test_matmul_routed_cost_linear;
          Alcotest.test_case "power table values" `Quick test_power_table_values;
          Alcotest.test_case "power table rounds" `Quick test_power_table_books_rounds;
          Alcotest.test_case "power table stop books every level" `Quick
            test_power_table_stop_books_every_level;
          Alcotest.test_case "power table bits is rounded squaring" `Quick
            test_power_table_pure_bits_is_rounded_squaring;
          Alcotest.test_case "off-size cost" `Quick test_mul_cost_off_size;
          Alcotest.test_case "semiring backend" `Quick test_semiring_backend;
        ] );
      ("properties", qsuite);
    ]
