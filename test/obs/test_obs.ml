(* Tests for the observability layer: tracing determinism under an injected
   clock, net-cost attribution, the zero-perturbation invariant, exporters,
   and the metrics registry. *)

module Trace = Cc_obs.Trace
module Metrics = Cc_obs.Metrics
module Json = Cc_obs.Json
module Profile = Cc_obs.Profile
module Benchdata = Cc_obs.Benchdata
module Net = Cc_clique.Net
module Prng = Cc_util.Prng
module Gen = Cc_graph.Gen
module Graph = Cc_graph.Graph
module Sampler = Cc_sampler.Sampler
module Doubling = Cc_doubling.Doubling
module Recorder = Cc_obs.Recorder
module Invariant = Cc_obs.Invariant

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A deterministic clock: each call advances by one "second". *)
let counter_clock () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

(* A clock that replays [ts] in order, one timestamp per call — spans read
   it at open and close. *)
let scripted_clock ts =
  let q = ref ts in
  fun () ->
    match !q with
    | x :: rest ->
        q := rest;
        x
    | [] -> Alcotest.fail "scripted clock exhausted"

(* --- Trace: span tree shape and determinism --------------------------- *)

let test_span_tree_shape () =
  let t = Trace.create ~clock:(counter_clock ()) () in
  Trace.with_trace t (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner-a" (fun () -> ());
          Trace.with_span "inner-b" ~args:[ ("k", "3") ] (fun () -> ()));
      Trace.with_span "second" (fun () -> ()));
  let roots = Trace.roots t in
  Alcotest.(check int) "two roots" 2 (List.length roots);
  let outer = List.hd roots in
  Alcotest.(check string) "root name" "outer" outer.Trace.name;
  Alcotest.(check int) "root depth" 0 outer.Trace.depth;
  let kids = outer.Trace.children in
  Alcotest.(check (list string))
    "children in start order" [ "inner-a"; "inner-b" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) kids);
  List.iter
    (fun (s : Trace.span) -> Alcotest.(check int) "child depth" 1 s.Trace.depth)
    kids;
  let b = List.nth kids 1 in
  Alcotest.(check (list (pair string string)))
    "args recorded" [ ("k", "3") ] b.Trace.args

let test_injected_clock_is_deterministic () =
  let run () =
    let t = Trace.create ~clock:(counter_clock ()) () in
    Trace.with_trace t (fun () ->
        Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ())));
    t
  in
  let t1 = run () and t2 = run () in
  let stamps t =
    let rec flat (s : Trace.span) =
      (s.Trace.name, s.Trace.start_ts, s.Trace.stop_ts)
      :: List.concat_map flat s.Trace.children
    in
    List.concat_map flat (Trace.roots t)
  in
  Alcotest.(check (list (triple string (float 0.0) (float 0.0))))
    "identical timestamps" (stamps t1) (stamps t2);
  (* With a +1/call counter clock the layout is fully pinned down. *)
  match stamps t1 with
  | [ ("a", a0, a1); ("b", b0, b1) ] ->
      Alcotest.(check bool) "nesting order" true (a0 < b0 && b1 <= a1)
  | other -> Alcotest.failf "unexpected span list (%d spans)" (List.length other)

let test_with_span_closes_on_exception () =
  let t = Trace.create ~clock:(counter_clock ()) () in
  (try
     Trace.with_trace t (fun () ->
         Trace.with_span "outer" (fun () ->
             Trace.with_span "boom" (fun () -> failwith "boom")))
   with Failure _ -> ());
  match Trace.roots t with
  | [ outer ] ->
      Alcotest.(check string) "outer recorded" "outer" outer.Trace.name;
      Alcotest.(check (list string))
        "raising child recorded" [ "boom" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name) outer.Trace.children);
      List.iter
        (fun (s : Trace.span) ->
          Alcotest.(check bool) "span closed" true (s.Trace.stop_ts >= s.Trace.start_ts))
        (outer :: outer.Trace.children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_disabled_is_transparent () =
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let r = Trace.with_span "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span = f () when off" 42 r;
  Trace.net_event ~rounds:1.0 ~messages:0 ~words:0 ~max_load:0;
  Alcotest.(check bool) "still no collector" false (Trace.enabled ())

let test_span_counts_allocation () =
  (* A span's words count what it allocates, also below a minor collection:
     1,000 cons cells are 3,000 words, a 100,000-float array 100,001. *)
  let t = Trace.create ~clock:(counter_clock ()) () in
  Trace.with_trace t (fun () ->
      Trace.with_span "cons" (fun () ->
          ignore (Sys.opaque_identity (List.init 1_000 Fun.id)));
      Trace.with_span "floats" (fun () ->
          ignore (Sys.opaque_identity (Array.make 100_000 0.5))));
  match Trace.roots t with
  | [ cons; floats ] ->
      Alcotest.(check bool)
        (Printf.sprintf "cons %.0f words" cons.Trace.alloc_words)
        true
        (cons.Trace.alloc_words >= 3_000.0);
      Alcotest.(check bool)
        (Printf.sprintf "floats %.0f words" floats.Trace.alloc_words)
        true
        (floats.Trace.alloc_words >= 100_000.0)
  | roots -> Alcotest.failf "expected two roots, got %d" (List.length roots)

(* --- Trace: artifact reload --------------------------------------------- *)

let test_trace_of_jsonl_roundtrip () =
  let t = Trace.create ~clock:(counter_clock ()) () in
  Trace.with_trace t (fun () ->
      Trace.with_span "run" (fun () ->
          Trace.with_span "inner" ~args:[ ("k", "v") ] (fun () -> ());
          Trace.net_event ~rounds:1.0 ~messages:2 ~words:4 ~max_load:2);
      Trace.with_span "second" (fun () -> ()));
  let artifact = Trace.to_jsonl t in
  (match Trace.of_jsonl artifact with
  | Error e -> Alcotest.failf "of_jsonl: %s" e
  | Ok t' ->
      (* depth-first flattening of every tree *)
      let rec shape (s : Trace.span) =
        ( s.Trace.depth,
          s.Trace.name,
          s.Trace.args,
          s.Trace.stop_ts -. s.Trace.start_ts,
          s.Trace.net_rounds )
        :: List.concat_map shape s.Trace.children
      in
      Alcotest.(check bool) "trees, args, walls, rounds survive" true
        (List.concat_map shape (Trace.roots t)
        = List.concat_map shape (Trace.roots t'));
      (* reconstructed ids stay unique and the chrome export still works *)
      (match Json.of_string (Trace.to_chrome_json t') with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "chrome after reload: %s" e));
  match Trace.of_jsonl "{\"type\":\"span\"}\nnot json\n" with
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (contains_substring ~needle:"line 1" e)
  | Ok _ -> Alcotest.fail "garbage must not reload"

let test_trace_of_jsonl_names_physical_line () =
  (* Blank lines count toward the number an error names. *)
  let t = Trace.create ~clock:(counter_clock ()) () in
  Trace.with_trace t (fun () -> Trace.with_span "a" (fun () -> ()));
  let artifact = Trace.to_jsonl t ^ "\n\n" ^ {|{"type":"span","id":1}|} in
  match Trace.of_jsonl artifact with
  | Ok _ -> Alcotest.fail "a span without fields must not reload"
  | Error e ->
      Alcotest.(check string) "physical line" {|line 4: missing field "name"|} e

let test_of_jsonl_skips_old_events () =
  (* Artifacts written before traces stopped keeping events hold
     ["type":"event"] lines; they reload to the same spans. *)
  let t = Trace.create ~clock:(counter_clock ()) () in
  let net = Net.create ~n:4 in
  Trace.with_trace t (fun () ->
      Trace.with_span "run" (fun () ->
          Trace.with_span "a" (fun () -> Net.charge net ~label:"c" 1.5);
          Trace.with_span "b" (fun () -> ())));
  let old_event =
    {|{"type":"event","ts_s":2.0,"span":1,"kind":"charge","label":"c","rounds":1.5,"messages":0,"words":0,"max_load":0,"round_clock":1.5}|}
  in
  let lines = String.split_on_char '\n' (Trace.to_jsonl t) in
  let after_a l =
    if contains_substring ~needle:{|"name":"a"|} l then [ l; old_event ] else [ l ]
  in
  let old = String.concat "\n" (List.concat_map after_a lines) in
  Alcotest.(check bool) "the old line sits between spans" true
    (contains_substring ~needle:(old_event ^ "\n" ^ List.nth lines 2) old);
  match (Trace.of_jsonl (Trace.to_jsonl t), Trace.of_jsonl old) with
  | Ok plain, Ok with_event ->
      Alcotest.(check string) "same spans" (Trace.to_jsonl plain)
        (Trace.to_jsonl with_event);
      Alcotest.(check int) "three spans" 3
        (List.length
           (String.split_on_char '\n' (Trace.to_jsonl with_event)
           |> List.filter (fun l -> l <> "")))
  | Error e, _ | _, Error e -> Alcotest.failf "of_jsonl: %s" e

(* --- Net attribution --------------------------------------------------- *)

(* The rounds of the top-level spans, summed. *)
let roots_rounds t =
  List.fold_left (fun acc sp -> acc +. sp.Trace.net_rounds) 0.0 (Trace.roots t)

let test_net_events_attributed_to_open_spans () =
  let t = Trace.create ~clock:(counter_clock ()) () in
  let net = Net.create ~n:4 in
  Trace.with_trace t (fun () ->
      Trace.with_span "phase" (fun () ->
          Net.broadcast net ~label:"b" ~src:0 ~words:3;
          Trace.with_span "sub" (fun () ->
              Net.all_to_all net ~label:"a2a" ~words_each:2)));
  match Trace.roots t with
  | [ phase ] ->
      let sub = List.hd phase.Trace.children in
      Alcotest.(check (float 1e-9))
        "root rounds = Net.rounds" (Net.rounds net) phase.Trace.net_rounds;
      Alcotest.(check int) "root words = Net.words" (Net.words net)
        phase.Trace.net_words;
      Alcotest.(check int) "root messages = the ledger's" (Shared.messages net)
        phase.Trace.net_messages;
      Alcotest.(check bool) "child sees only its share" true
        (sub.Trace.net_rounds < phase.Trace.net_rounds);
      Alcotest.(check (float 1e-9))
        "the roots sum to Net.rounds" (Net.rounds net) (roots_rounds t)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_add_sink_receives_events () =
  let net = Net.create ~n:4 in
  let seen = ref [] in
  Net.add_sink net (fun e -> seen := e :: !seen);
  Net.broadcast net ~label:"b" ~src:0 ~words:5;
  Net.charge net ~label:"c" 1.0;
  let evs = List.rev !seen in
  Alcotest.(check (list string))
    "sink saw both" [ "broadcast"; "charge" ]
    (List.map (fun (e : Recorder.record) -> e.kind) evs);
  let b = List.hd evs in
  (* A broadcast of w words delivers w to each of the n-1 receivers. *)
  Alcotest.(check int) "words carried" (5 * (Net.n net - 1)) b.Recorder.words;
  Alcotest.(check string) "label carried" "b" b.Recorder.label

(* One record per booking reaches every listener. A fault-injected run, so
   that retransmission waves ([:retry]) and corrupted deliveries are among
   the bookings: the recorder stores the very records a plain sink saw, in
   booking order, numbered from 0 on one round clock, and the profile and
   the monitor fed live agree with the same fold over the stored log. *)
let test_one_record_reaches_every_listener () =
  let prng = Prng.create ~seed:3 in
  let g = Gen.build prng Gen.Lollipop ~n:12 in
  let n = Graph.n g in
  let faults =
    Cc_clique.Fault.(
      create (spec ~drop_prob:0.1 ~corrupt_prob:0.05 ~seed:7 ()))
  in
  let net = Net.with_faults faults (Net.create ~n) in
  let seen = ref [] in
  let r = Recorder.create ~machines:n () in
  let live = Profile.create ~machines:n in
  let inv = Invariant.create ~machines:n () in
  Net.add_sink net (fun e -> seen := e :: !seen);
  Net.add_sink net (Recorder.add r);
  Net.add_sink net (Profile.add live);
  Net.add_sink net (fun e -> ignore (Invariant.observe inv e));
  ignore (Sampler.sample net prng g);
  let seen = List.rev !seen and stored = Recorder.records r in
  Alcotest.(check bool) "retransmission waves booked" true
    (List.exists
       (fun (e : Recorder.record) -> String.ends_with ~suffix:":retry" e.label)
       seen);
  Alcotest.(check int) "every booking stored" (List.length seen)
    (List.length stored);
  Alcotest.(check bool) "stored records are the ones the sink saw" true
    (List.for_all2 ( == ) seen stored);
  Alcotest.(check (list int)) "seq runs 0..k-1"
    (List.init (List.length stored) Fun.id)
    (List.map (fun (e : Recorder.record) -> e.seq) stored);
  (* The clock adds each booking's rounds, and [round_start] takes them off
     again: the previous [round_end] up to that subtraction's rounding. *)
  let _, gaps =
    List.fold_left
      (fun (clock, gaps) (e : Recorder.record) ->
        let ok =
          Float.equal e.round_end (clock +. e.rounds)
          && Float.equal e.round_start (e.round_end -. e.rounds)
          && Float.abs (e.round_start -. clock) <= 1e-12 *. Float.max 1.0 clock
        in
        (e.round_end, if ok then gaps else gaps + 1))
      (0.0, 0) stored
  in
  Alcotest.(check int) "each round_start is the previous round_end" 0 gaps;
  let folded = Profile.create ~machines:n in
  List.iter (Profile.add folded) stored;
  let lanes (p : Profile.t) =
    Hashtbl.fold
      (fun _ (row : Profile.row) acc -> (row.label, row.sent, row.recv) :: acc)
      p.lanes []
    |> List.sort compare
  in
  Alcotest.(check bool) "live profile = fold over the stored log" true
    (lanes live = lanes folded
    && live.total_sent = folded.total_sent
    && live.total_recv = folded.total_recv
    && live.total_words = folded.total_words);
  Alcotest.(check int) "online monitor clean" 0 (Invariant.count inv);
  Alcotest.(check int) "stored log checks clean" 0
    (List.length (Invariant.check_log ~machines:n stored))

(* [seq] is the net's booking index, not the listener's: a sink subscribed
   after k bookings first sees k. *)
let test_late_sink_sees_net_seq () =
  let net = Net.create ~n:4 in
  Net.exchange net ~label:"x" [ { Net.src = 0; dst = 1; words = 3 } ];
  Net.charge net ~label:"c" 1.0;
  Net.broadcast net ~label:"b" ~src:2 ~words:4;
  let seen = ref [] in
  Net.add_sink net (fun e -> seen := e.Recorder.seq :: !seen);
  Net.charge net ~label:"c" 1.0;
  Net.exchange net ~label:"x" [ { Net.src = 1; dst = 2; words = 1 } ];
  Alcotest.(check (list int)) "numbered from the net's count" [ 3; 4 ]
    (List.rev !seen)

let test_sampler_root_span_matches_ledger () =
  let g = Gen.complete 6 in
  let t = Trace.create ~clock:(counter_clock ()) () in
  let net = Net.create ~n:6 in
  let r =
    Trace.with_trace t (fun () -> Sampler.sample net (Prng.create ~seed:11) g)
  in
  Alcotest.(check (float 1e-6))
    "trace accounts for every booked round" (Net.rounds net)
    (roots_rounds t);
  Alcotest.(check (float 1e-6)) "result agrees" r.Sampler.rounds (Net.rounds net)

let test_tracing_does_not_perturb_run () =
  let run traced =
    let g = Gen.complete 8 in
    let net = Net.create ~n:8 in
    let sample () = Sampler.sample net (Prng.create ~seed:3) g in
    let _r =
      if traced then
        Trace.with_trace (Trace.create ~clock:(counter_clock ()) ()) sample
      else sample ()
    in
    Format.asprintf "%a" Net.pp_ledger net
  in
  Alcotest.(check string) "ledger bit-identical under tracing" (run false)
    (run true)

(* --- Exporters --------------------------------------------------------- *)

let traced_net_run () =
  let t = Trace.create ~clock:(counter_clock ()) () in
  let net = Net.create ~n:4 in
  Trace.with_trace t (fun () ->
      Trace.with_span "outer" ~args:[ ("n", "4") ] (fun () ->
          Net.broadcast net ~label:"b\"x" ~src:0 ~words:1;
          Trace.with_span "inner" (fun () -> Net.charge net ~label:"c" 1.0)));
  t

let test_chrome_export () =
  let t = traced_net_run () in
  let s = Trace.to_chrome_json t in
  Alcotest.(check bool) "traceEvents" true
    (contains_substring ~needle:"\"traceEvents\"" s);
  Alcotest.(check bool) "complete events" true
    (contains_substring ~needle:"\"ph\": \"X\"" s
    || contains_substring ~needle:"\"ph\":\"X\"" s);
  Alcotest.(check bool) "span name present" true
    (contains_substring ~needle:"outer" s)

let test_jsonl_export () =
  let t = traced_net_run () in
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl t)
    |> List.filter (fun l -> l <> "")
  in
  (* 2 spans, one object per line. *)
  Alcotest.(check int) "one object per span" 2 (List.length lines);
  Alcotest.(check bool) "span lines" true
    (List.for_all (contains_substring ~needle:{|"type":"span"|}) lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_pp_tree () =
  let t = traced_net_run () in
  let s = Format.asprintf "%a" Trace.pp_tree t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (contains_substring ~needle s))
    [ "outer"; "inner"; "rounds" ]

let test_bookings_counted_not_kept () =
  (* A trace counts the bookings it sees ([dropped_events], which bench/perf
     reads as [count.net_events]) and keeps none: its artifact holds span
     lines only. *)
  let g = Gen.complete 6 in
  let t = Trace.create ~clock:(counter_clock ()) () in
  let net = Net.create ~n:6 in
  let booked = ref 0 in
  Net.add_sink net (fun _ -> incr booked);
  ignore
    (Trace.with_trace t (fun () -> Sampler.sample net (Prng.create ~seed:5) g));
  Alcotest.(check bool) "the run booked primitives" true (!booked > 0);
  Alcotest.(check int) "every booking counted" !booked (Trace.dropped_events t);
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl t)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "span lines only, no event line" true
    (lines <> []
    && List.for_all (contains_substring ~needle:{|"type":"span"|}) lines)

let test_span_tracks_max_load () =
  let t = Trace.create ~clock:(counter_clock ()) () in
  let net = Net.create ~n:4 in
  Trace.with_trace t (fun () ->
      Trace.with_span "outer" (fun () ->
          Net.exchange net ~label:"x" [ { Net.src = 0; dst = 1; words = 9 } ];
          Trace.with_span "inner" (fun () ->
              Net.exchange net ~label:"y" [ { Net.src = 2; dst = 3; words = 4 } ])));
  match Trace.roots t with
  | [ outer ] ->
      let inner = List.hd outer.Trace.children in
      Alcotest.(check int) "outer peak" 9 outer.Trace.net_max_load;
      Alcotest.(check int) "inner peak only its own" 4 inner.Trace.net_max_load
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_chrome_export_escapes_args () =
  (* Span args are user/caller data: quotes, control characters, and
     non-BMP text must all survive into parseable Chrome JSON. *)
  let quote = {|say "hi"|} and ctl = "a\x01\tb" and emoji = "\xf0\x9f\x98\x80" in
  let t = Trace.create ~clock:(counter_clock ()) () in
  Trace.with_trace t (fun () ->
      Trace.with_span "phase"
        ~args:[ ("quote", quote); ("ctl", ctl); ("emoji", emoji) ]
        (fun () -> ()));
  let out = Trace.to_chrome_json t in
  match Json.of_string out with
  | Error e -> Alcotest.failf "chrome json must reparse: %s" e
  | Ok doc ->
      let evs =
        Option.value ~default:[]
          (Option.bind (Json.member "traceEvents" doc) Json.to_list_opt)
      in
      let span =
        List.find
          (fun e -> Json.member "name" e = Some (Json.String "phase"))
          evs
      in
      let arg k =
        Option.bind
          (Option.bind (Json.member "args" span) (Json.member k))
          Json.to_string_opt
      in
      Alcotest.(check (option string)) "quotes survive" (Some quote)
        (arg "quote");
      Alcotest.(check (option string)) "control chars survive" (Some ctl)
        (arg "ctl");
      Alcotest.(check (option string)) "non-BMP text survives" (Some emoji)
        (arg "emoji")

(* --- Self time ---------------------------------------------------------- *)

let test_self_times_nested () =
  (* run [0,10] with children a [1,3] (which books 2.5 rounds) and b [4,9]:
     self time, never inclusive. *)
  let t = Trace.create ~clock:(scripted_clock [ 0.; 1.; 3.; 4.; 9.; 10. ]) () in
  Trace.with_trace t (fun () ->
      Trace.with_span "run" (fun () ->
          Trace.with_span "a" (fun () ->
              Trace.net_event ~rounds:2.5 ~messages:3 ~words:9 ~max_load:0);
          Trace.with_span "b" (fun () -> ())));
  let st = Trace.self_times t in
  Alcotest.(check (float 1e-9)) "total" 10.0 st.Trace.total_s;
  Alcotest.(check (float 1e-9)) "fully covered" 10.0 st.Trace.covered_s;
  Alcotest.(check (float 1e-9)) "no gaps" 0.0 st.Trace.gap_s;
  let row name =
    List.find (fun (r : Trace.self_row) -> r.Trace.span = name) st.Trace.rows
  in
  Alcotest.(check (float 1e-9)) "run self" 3.0 (row "run").Trace.self_s;
  Alcotest.(check (float 1e-9)) "a self" 2.0 (row "a").Trace.self_s;
  Alcotest.(check (float 1e-9)) "b self" 5.0 (row "b").Trace.self_s;
  (match st.Trace.rows with
  | top :: _ -> Alcotest.(check string) "largest first" "b" top.Trace.span
  | [] -> Alcotest.fail "no rows");
  Alcotest.(check (float 1e-9)) "share of run's three slices" 0.3
    (Trace.self_share st.Trace.rows ~name:"run");
  Alcotest.(check (float 1e-9)) "absent span has no share" 0.0
    (Trace.self_share st.Trace.rows ~name:"nope");
  (* self-rounds: run's 2.5 are all inside child a, so a carries them *)
  Alcotest.(check (float 1e-9)) "run self-rounds" 0.0 (row "run").Trace.self_rounds;
  Alcotest.(check (float 1e-9)) "a self-rounds" 2.5 (row "a").Trace.self_rounds

let test_self_times_gap_and_empty () =
  let t = Trace.create ~clock:(scripted_clock [ 0.; 2.; 5.; 8. ]) () in
  Alcotest.(check int) "no spans -> no rows" 0
    (List.length (Trace.self_times t).Trace.rows);
  Trace.with_trace t (fun () ->
      Trace.with_span "a" (fun () -> ());
      Trace.with_span "b" (fun () -> ()));
  let st = Trace.self_times t in
  Alcotest.(check (float 1e-9)) "total spans idle time" 8.0 st.Trace.total_s;
  Alcotest.(check (float 1e-9)) "covered" 5.0 st.Trace.covered_s;
  Alcotest.(check (float 1e-9)) "gap accounted" 3.0 st.Trace.gap_s

(* --- Json -------------------------------------------------------------- *)

let test_json_serialization () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null ]);
        ("s", Json.String "q\"uote\nline");
        ("nan", Json.float_opt Float.nan);
        ("inf", Json.float_opt Float.infinity);
        ("f", Json.float_opt 0.5);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check string) "compact form"
    "{\"a\":1,\"b\":[true,null],\"s\":\"q\\\"uote\\nline\",\"nan\":null,\"inf\":null,\"f\":0.5}"
    s;
  let pretty = Json.to_string_pretty v in
  Alcotest.(check bool) "pretty is indented" true
    (contains_substring ~needle:"\n  " pretty)

let test_json_parse_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null ]);
        ("s", Json.String "q\"uote\nline");
        ("f", Json.Float 0.5);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse inverts serialize" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_numbers () =
  let parse s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  Alcotest.(check bool) "bare int stays Int" true (parse "42" = Json.Int 42);
  Alcotest.(check bool) "negative int" true (parse "-7" = Json.Int (-7));
  Alcotest.(check bool) "fraction is Float" true (parse "42.0" = Json.Float 42.0);
  Alcotest.(check bool) "exponent is Float" true (parse "1e3" = Json.Float 1000.0);
  (match parse "123456789012345678901234567890" with
  | Json.Float _ -> ()
  | _ -> Alcotest.fail "out-of-range literal should fall back to Float")

let test_json_parse_escapes () =
  let parse s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  Alcotest.(check bool) "simple escapes" true
    (parse {|"q\"uote\nline\ttab"|} = Json.String "q\"uote\nline\ttab");
  Alcotest.(check bool) "\\u BMP decodes to UTF-8" true
    (parse "\"A\\u00e9\"" = Json.String "A\xc3\xa9");
  Alcotest.(check bool) "surrogate pair decodes" true
    (parse "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "unpaired surrogate replaced" true
    (parse {|"\ud83dx"|} = Json.String "\xef\xbf\xbdx")

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to fail" s
  in
  fails "";
  fails "{\"a\":}";
  fails "[1,]";
  fails "1 x" (* trailing garbage *);
  fails "\"unterminated";
  fails "nul"

(* --- Profile ------------------------------------------------------------ *)

(* A booking that moved [sent]/[recv], as a net hands it to a profile. *)
let traffic ~label ~words ~sent ~recv =
  {
    Recorder.seq = 0;
    kind = "exchange";
    label;
    round_start = 0.0;
    round_end = 1.0;
    rounds = 1.0;
    messages = 1;
    words;
    max_load = 0;
    sent;
    recv;
    retransmits = 0;
    dropped = 0;
  }

let two_hot_profile () =
  let p = Profile.create ~machines:4 in
  Profile.add p
    (traffic ~label:"a" ~words:12 ~sent:[| 6; 2; 2; 2 |]
       ~recv:[| 2; 6; 2; 2 |]);
  p

let test_profile_stats () =
  let p = two_hot_profile () in
  (* Loads are max(sent, recv): [6; 6; 2; 2]; total_words = 12, mean 3. *)
  Alcotest.(check int) "max load" 6 (Profile.max_load p);
  Alcotest.(check (float 1e-9)) "imbalance" 2.0 (Profile.imbalance p);
  (* The mean is the balanced ideal, p50 interpolates between 2 and 6, and
     the tie between machines 0 and 1 goes to the lower index. *)
  Alcotest.(check string) "summary"
    "load: max 6  mean 3.0  p50 4.0  p95 6.0  imbalance 2.00  hot machine 0 (6 words)"
    (Shared.profile_summary p)

let test_profile_create_validates () =
  (try
     ignore (Profile.create ~machines:0);
     Alcotest.fail "zero machines accepted"
   with Invalid_argument _ -> ());
  let p = Profile.create ~machines:2 in
  List.iter
    (fun (what, sent, recv) ->
      try
        Profile.add p (traffic ~label:"x" ~words:1 ~sent ~recv);
        Alcotest.failf "%s accepted" what
      with Invalid_argument _ -> ())
    [
      ("short arrays", [| 1 |], [| 1; 2 |]);
      ("long arrays", [| 1; 2; 3 |], [| 1; 2; 3 |]);
      ("one empty array", [||], [| 1; 2 |]);
    ];
  (* An analytic charge (both arrays empty) routes nothing and is skipped. *)
  Profile.add p (traffic ~label:"charge" ~words:0 ~sent:[||] ~recv:[||]);
  Alcotest.(check int) "no rows" 0 (Hashtbl.length p.Profile.lanes);
  Alcotest.(check int) "no load" 0 (Profile.max_load p);
  Alcotest.(check (float 1e-9)) "imbalance of empty profile" 1.0
    (Profile.imbalance p);
  Alcotest.(check string) "no hot machine"
    "load: max 0  mean 0.0  p50 0.0  p95 0.0  imbalance 1.00"
    (Shared.profile_summary p)

let test_profile_render_buckets () =
  let sent = Array.make 10 0 and recv = Array.make 10 1 in
  sent.(9) <- 40;
  let p = Profile.create ~machines:10 in
  Profile.add p (traffic ~label:"skew" ~words:40 ~sent ~recv);
  let s = Profile.render ~max_width:5 p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (contains_substring ~needle s))
    [ "(2 per column)"; "TOTAL"; "^ machine 9"; "imbalance" ]

let test_profile_recorded_log_fold () =
  (* Folding a recorded sampler run's log, reloaded from its JSONL export,
     must rebuild exactly the profile the live subscription accumulated. *)
  let prng = Prng.create ~seed:3 in
  let g = Gen.build prng Gen.Lollipop ~n:12 in
  let n = Graph.n g in
  let net = Net.create ~n in
  let live = Profile.create ~machines:n in
  let r = Recorder.create ~machines:n () in
  Net.add_sink net (Profile.add live);
  Net.add_sink net (Recorder.add r);
  ignore (Sampler.sample net prng g);
  match Recorder.of_jsonl (Recorder.to_jsonl r) with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok l ->
      Alcotest.(check bool) "digest verifies" true
        (Result.is_ok (Recorder.verify l));
      let folded = Profile.create ~machines:(Recorder.machines l.Recorder.log) in
      List.iter (Profile.add folded) (Recorder.records l.Recorder.log);
      Alcotest.(check bool) "the run booked traffic" true
        (Profile.max_load live > 0);
      Alcotest.(check int) "total words = Net.words" (Net.words net)
        live.Profile.total_words;
      Alcotest.(check int) "total words" live.Profile.total_words
        folded.Profile.total_words;
      Alcotest.(check (array int)) "per-machine sent" live.Profile.total_sent
        folded.Profile.total_sent;
      Alcotest.(check (array int)) "per-machine recv" live.Profile.total_recv
        folded.Profile.total_recv;
      Alcotest.(check string) "heatmap identical" (Profile.render live)
        (Profile.render folded)

(* --- Benchdata ---------------------------------------------------------- *)

let synthetic_bench =
  {|{
  "schema": "cc-bench/2",
  "fast": true,
  "experiments": [
    {"id": "E1", "title": "first", "wall_s": 1.5, "max_load": 10, "imbalance": 2.0}
  ],
  "records": [
    {"experiment": "E1", "params": {"n": 8}, "measured": 4.0, "bound": 4.0, "ratio": 1.0},
    {"experiment": "E1", "params": {"n": 16}, "measured": 8.0, "bound": 4.0, "ratio": 2.0},
    {"experiment": "X", "params": {}, "measured": 3.0}
  ]
}|}

let test_benchdata_of_string () =
  match Benchdata.of_string synthetic_bench with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
      Alcotest.(check string) "schema" "cc-bench/2" doc.Benchdata.schema;
      Alcotest.(check bool) "fast" true doc.Benchdata.fast;
      (match doc.Benchdata.experiments with
      | [ e ] ->
          Alcotest.(check string) "id" "E1" e.Benchdata.id;
          Alcotest.(check (option int)) "max_load" (Some 10) e.Benchdata.max_load;
          Alcotest.(check (option (float 0.0)))
            "imbalance" (Some 2.0) e.Benchdata.imbalance
      | es -> Alcotest.failf "expected one experiment, got %d" (List.length es));
      Alcotest.(check int) "records" 3 (List.length doc.Benchdata.records);
      let aggs = Benchdata.aggregate doc in
      (match aggs with
      | [ e1; x ] ->
          Alcotest.(check string) "E1 listed first" "E1" e1.Benchdata.exp.Benchdata.id;
          Alcotest.(check int) "E1 rows" 2 e1.Benchdata.rows;
          Alcotest.(check (option (float 1e-9)))
            "E1 mean ratio" (Some 1.5) e1.Benchdata.mean_ratio;
          Alcotest.(check (option (float 1e-9)))
            "E1 worst ratio" (Some 2.0) e1.Benchdata.worst_ratio;
          Alcotest.(check string) "record-only id appended" "X"
            x.Benchdata.exp.Benchdata.id;
          Alcotest.(check (option reject))
            "no ratio -> no mean" None x.Benchdata.mean_ratio
      | _ -> Alcotest.failf "expected 2 aggregates, got %d" (List.length aggs));
      (* First-parsed param stringification matches the printed tables. *)
      let r = List.hd doc.Benchdata.records in
      Alcotest.(check (list (pair string string)))
        "params stringified" [ ("n", "8") ] r.Benchdata.params

let test_benchdata_rejects_wrong_schema () =
  (match Benchdata.of_string "{\"schema\": \"other/1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema accepted");
  match Benchdata.of_string "{\"records\": []}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema-less document accepted"

(* cc-bench/3 and early cc-bench/4 runs carry a top-level engine object
   (bench/BENCH_fast.json is one). It is no longer read, and must not stop
   such a document from loading. *)
let test_benchdata_skips_engine () =
  let old =
    {|{
  "schema": "cc-bench/4",
  "fast": true,
  "engine": {"domains": 1, "speedup": 0.25},
  "experiments": [{"id": "E1", "title": "first", "wall_s": 1.5}],
  "records": [
    {"experiment": "E1", "params": {"n": 8}, "measured": 4.0, "bound": 4.0, "ratio": 1.0}
  ]
}|}
  in
  match Benchdata.of_string old with
  | Error e -> Alcotest.failf "document with an engine object rejected: %s" e
  | Ok doc ->
      Alcotest.(check string) "schema" "cc-bench/4" doc.Benchdata.schema;
      Alcotest.(check int) "experiments" 1 (List.length doc.Benchdata.experiments);
      Alcotest.(check int) "records" 1 (List.length doc.Benchdata.records)

(* A doc with one ratio-bearing record per (id, ratio) pair. *)
let doc_of_ratios pairs =
  {
    Benchdata.schema = "cc-bench/2";
    fast = true;
    experiments =
      List.map
        (fun (id, _) ->
          {
            Benchdata.id;
            title = id;
            wall_s = None;
            max_load = None;
            imbalance = None;
          })
        pairs;
    records =
      List.map
        (fun (id, ratio) ->
          {
            Benchdata.experiment = id;
            params = [];
            measured = Some ratio;
            bound = Some 1.0;
            ratio = Some ratio;
            quality = [];
          })
        pairs;
  }

let delta_ids = List.map (fun (d : Benchdata.delta) -> d.Benchdata.id)

let test_benchdata_diff_partitions () =
  let baseline =
    doc_of_ratios [ ("A", 1.0); ("B", 1.0); ("C", 1.0); ("D", 1.0) ]
  in
  let current =
    doc_of_ratios [ ("A", 1.2); ("B", 0.8); ("C", 1.05); ("E", 1.0) ]
  in
  let d = Benchdata.diff ~threshold:0.10 ~baseline current in
  Alcotest.(check (list string)) "regressions" [ "A" ] (delta_ids d.Benchdata.regressions);
  Alcotest.(check (list string)) "improvements" [ "B" ] (delta_ids d.Benchdata.improvements);
  Alcotest.(check (list string)) "unchanged" [ "C" ] (delta_ids d.Benchdata.unchanged);
  Alcotest.(check (list string)) "dropped experiments reported" [ "D" ]
    d.Benchdata.only_old;
  Alcotest.(check (list string)) "new experiments reported" [ "E" ]
    d.Benchdata.only_new;
  (match d.Benchdata.regressions with
  | [ a ] ->
      Alcotest.(check (float 1e-9)) "relative change" 0.2 a.Benchdata.change
  | _ -> Alcotest.fail "expected exactly one regression");
  (* A looser threshold absorbs the 20% drift. *)
  let loose = Benchdata.diff ~threshold:0.25 ~baseline current in
  Alcotest.(check (list string)) "loose threshold: no regressions" []
    (delta_ids loose.Benchdata.regressions);
  Alcotest.(check (list string))
    "loose threshold: all within band" [ "A"; "B"; "C" ]
    (delta_ids loose.Benchdata.unchanged)

let test_benchdata_diff_self_is_clean () =
  let doc = doc_of_ratios [ ("A", 1.37); ("B", 0.92) ] in
  let d = Benchdata.diff ~threshold:0.10 ~baseline:doc doc in
  Alcotest.(check (list string)) "no regressions" [] (delta_ids d.Benchdata.regressions);
  Alcotest.(check (list string)) "no improvements" [] (delta_ids d.Benchdata.improvements);
  Alcotest.(check int) "all unchanged" 2 (List.length d.Benchdata.unchanged);
  List.iter
    (fun (dl : Benchdata.delta) ->
      Alcotest.(check (float 0.0)) "zero change" 0.0 dl.Benchdata.change)
    d.Benchdata.unchanged

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_counters_gauges_histograms () =
  Metrics.reset ();
  Metrics.incr "c";
  Metrics.incr ~by:4 "c";
  Metrics.set_gauge "g" 1.5;
  Metrics.set_gauge "g" 2.5;
  Metrics.observe "h" 1.0;
  Metrics.observe "h" 3.0;
  (match Shared.metric "c" with
  | Some (Metrics.Counter 5) -> ()
  | _ -> Alcotest.fail "counter c <> 5");
  (match Shared.metric "g" with
  | Some (Metrics.Gauge x) -> Alcotest.(check (float 0.0)) "gauge" 2.5 x
  | _ -> Alcotest.fail "gauge g missing");
  (match Shared.metric "h" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check int) "count" 2 h.Metrics.count;
      Alcotest.(check (float 0.0)) "sum" 4.0 h.Metrics.sum;
      Alcotest.(check (float 0.0)) "min" 1.0 h.Metrics.min;
      Alcotest.(check (float 0.0)) "max" 3.0 h.Metrics.max
  | _ -> Alcotest.fail "histogram h missing");
  Alcotest.(check (list string))
    "snapshot sorted" [ "c"; "g"; "h" ]
    (List.map fst (Metrics.snapshot ()));
  Metrics.reset ();
  Alcotest.(check (option reject)) "reset clears" None (Shared.metric "c")

let test_metrics_kind_conflict () =
  Metrics.reset ();
  Metrics.incr "x";
  Alcotest.check_raises "gauge on a counter name"
    (Invalid_argument "Metrics: \"x\" is already bound to another instrument kind")
    (fun () -> Metrics.set_gauge "x" 1.0);
  Alcotest.check_raises "histogram on a counter name"
    (Invalid_argument "Metrics: \"x\" is already bound to another instrument kind")
    (fun () -> Metrics.observe "x" 1.0);
  Metrics.reset ()

let test_metrics_json () =
  Metrics.reset ();
  Metrics.incr ~by:2 "runs";
  Metrics.observe "err" 0.5;
  let s = Json.to_string (Metrics.to_json ()) in
  Alcotest.(check bool) "counter exported" true
    (contains_substring ~needle:"\"runs\":{\"type\":\"counter\",\"value\":2}" s);
  Alcotest.(check bool) "histogram exported" true
    (contains_substring ~needle:"\"err\"" s && contains_substring ~needle:"\"count\"" s);
  Metrics.reset ()

let test_metrics_percentiles () =
  Metrics.reset ();
  (* 100 observations 1..100: p50 falls in the bucket [32, 64), p95 and p99
     in [64, 128) — the estimate is the bucket's upper bound clamped to the
     observed max. Deterministic: same stream, same summary. *)
  for i = 1 to 100 do
    Metrics.observe "lat" (Float.of_int i)
  done;
  (match Shared.metric "lat" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check int) "count" 100 h.Metrics.count;
      Alcotest.(check (float 0.0)) "p50 = bucket upper bound" 64.0 h.Metrics.p50;
      Alcotest.(check (float 0.0)) "p95 clamped to max" 100.0 h.Metrics.p95;
      Alcotest.(check (float 0.0)) "p99 clamped to max" 100.0 h.Metrics.p99
  | _ -> Alcotest.fail "histogram missing");
  (* Degenerate: a single observation pins every percentile to it. *)
  Metrics.observe "one" 42.0;
  (match Shared.metric "one" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check (float 0.0)) "single p50" 42.0 h.Metrics.p50;
      Alcotest.(check (float 0.0)) "single p99" 42.0 h.Metrics.p99
  | _ -> Alcotest.fail "histogram missing");
  (* Non-positive observations land in bucket 0 and report min. *)
  Metrics.observe "neg" (-5.0);
  Metrics.observe "neg" 0.0;
  (match Shared.metric "neg" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check (float 0.0)) "non-positive p50" (-5.0) h.Metrics.p50
  | _ -> Alcotest.fail "histogram missing");
  Metrics.reset ()

(* The log bucket one observation of [x] folds into, read back from the
   histogram's sparse buckets. *)
let bucket_of x =
  Metrics.reset ();
  Metrics.observe "b" x;
  match Shared.metric "b" with
  | Some (Metrics.Histogram { Metrics.buckets = [ (i, 1) ]; _ }) -> i
  | _ -> Alcotest.fail "one observation, one bucket"

let test_metrics_bucket_of () =
  Alcotest.(check int) "zero -> 0" 0 (bucket_of 0.0);
  Alcotest.(check int) "negative -> 0" 0 (bucket_of (-3.0));
  Alcotest.(check int) "nan -> 0" 0 (bucket_of Float.nan);
  Alcotest.(check int) "1.0 -> 64" 64 (bucket_of 1.0);
  Alcotest.(check int) "1.5 stays in [1,2)" 64 (bucket_of 1.5);
  Alcotest.(check int) "2.0 -> 65" 65 (bucket_of 2.0);
  Alcotest.(check int) "0.5 -> 63" 63 (bucket_of 0.5);
  Alcotest.(check int) "underflow clamps" 0 (bucket_of 1e-30);
  Alcotest.(check int) "infinity clamps to the last of 128" 127
    (bucket_of Float.infinity);
  Metrics.reset ()

let test_metrics_value_json_roundtrip () =
  Metrics.reset ();
  for i = 1 to 30 do
    Metrics.observe "h" (Float.of_int (i * i))
  done;
  Metrics.incr ~by:17 "c";
  Metrics.set_gauge "g" 2.75;
  let exported =
    match Metrics.to_json () with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "the export is an object"
  in
  List.iter
    (fun name ->
      match (Shared.metric name, List.assoc_opt name exported) with
      | None, _ | _, None -> Alcotest.failf "%s missing" name
      | Some v, Some j -> (
          match Metrics.value_of_json j with
          | Error e -> Alcotest.failf "%s roundtrip: %s" name e
          | Ok v' -> (
              match (v, v') with
              | Metrics.Counter a, Metrics.Counter b ->
                  Alcotest.(check int) "counter" a b
              | Metrics.Gauge a, Metrics.Gauge b ->
                  Alcotest.(check (float 0.0)) "gauge" a b
              | Metrics.Histogram a, Metrics.Histogram b ->
                  Alcotest.(check int) "count" a.Metrics.count b.Metrics.count;
                  Alcotest.(check (float 0.0)) "p50" a.Metrics.p50
                    b.Metrics.p50;
                  Alcotest.(check bool) "buckets" true
                    (a.Metrics.buckets = b.Metrics.buckets)
              | _ -> Alcotest.fail "kind changed in roundtrip")))
    [ "h"; "c"; "g" ];
  Metrics.reset ()

(* --- Json emitter escaping (round-trips through the parser) ------------ *)

let emit_parse s =
  let out = Json.to_string (Json.String s) in
  match Json.of_string out with
  | Ok (Json.String s') -> (out, s')
  | Ok _ -> Alcotest.failf "emitted %S reparsed as a non-string" out
  | Error e -> Alcotest.failf "emitted %S does not reparse: %s" out e

let test_json_emit_control_chars () =
  let s = "a\x01b\x1fc" in
  let out, back = emit_parse s in
  Alcotest.(check bool) "C0 controls become \\u00xx" true
    (contains_substring ~needle:{|\u0001|} out
    && contains_substring ~needle:{|\u001f|} out);
  Alcotest.(check string) "round-trip" s back

let test_json_emit_quote_backslash () =
  let s = {|say "hi" \ done|} in
  let out, back = emit_parse s in
  Alcotest.(check bool) "quote and backslash escaped" true
    (contains_substring ~needle:{|\"hi\"|} out
    && contains_substring ~needle:{|\\|} out);
  Alcotest.(check string) "round-trip" s back

let test_json_emit_non_bmp () =
  (* The emitter passes non-ASCII bytes through raw; a non-BMP code point
     (U+1F600, 4 UTF-8 bytes) must survive emit -> parse unchanged, and
     agree with the parser's own \u surrogate-pair decoding. *)
  let s = "\xf0\x9f\x98\x80" in
  let out, back = emit_parse s in
  Alcotest.(check string) "raw UTF-8 preserved" ("\"" ^ s ^ "\"") out;
  Alcotest.(check string) "round-trip" s back;
  match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s') ->
      Alcotest.(check string) "agrees with surrogate-pair decoding" s s'
  | _ -> Alcotest.fail "surrogate pair did not parse"

(* --- Recorder ----------------------------------------------------------- *)

(* A two-machine exchange record with overridable fields, numbered and
   timed as a net would: next in [r]'s stream, starting [rounds] before
   [round_end]. *)
let radd r ?(kind = "exchange") ?(label = "x") ?(rounds = 1.0) ~round_end
    ?(messages = 1) ?(words = 2) ?(max_load = 2) ?(sent = [| 2; 0 |])
    ?(recv = [| 0; 2 |]) () =
  Recorder.add r
    {
      seq = Recorder.total r;
      kind;
      label;
      round_start = round_end -. rounds;
      round_end;
      rounds;
      messages;
      words;
      max_load;
      sent;
      recv;
      retransmits = 0;
      dropped = 0;
    }

let test_recorder_digest_determinism () =
  let mk labels =
    let r = Recorder.create ~machines:2 () in
    List.iteri
      (fun i label -> radd r ~label ~round_end:(float_of_int (i + 1)) ())
      labels;
    r
  in
  let a = mk [ "p"; "q" ] and b = mk [ "p"; "q" ] and c = mk [ "q"; "p" ] in
  Alcotest.(check string) "identical streams agree"
    (Recorder.digest_hex a) (Recorder.digest_hex b);
  Alcotest.(check bool) "reordered stream disagrees" false
    (String.equal (Recorder.digest_hex a) (Recorder.digest_hex c));
  Alcotest.(check bool) "digest is fnv64-tagged hex" true
    (String.length (Recorder.digest_hex a) = 22
    && String.sub (Recorder.digest_hex a) 0 6 = "fnv64:")

let test_recorder_jsonl_roundtrip () =
  let r = Recorder.create ~machines:2 () in
  radd r ~label:"walk" ~round_end:1.5 ~rounds:1.5 ();
  radd r ~kind:"charge" ~label:"free" ~rounds:0.25 ~round_end:1.75 ~messages:0
    ~words:0 ~max_load:0 ~sent:[||] ~recv:[||] ();
  radd r ~kind:"broadcast" ~label:"bc" ~round_end:2.75 ~words:2 ~max_load:2
    ~sent:[| 2; 0 |] ~recv:[| 0; 2 |] ();
  match Recorder.of_jsonl (Recorder.to_jsonl r) with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok l ->
      (match Recorder.verify l with
      | Ok d ->
          Alcotest.(check string) "verified digest matches the live one"
            (Recorder.digest_hex r) d
      | Error e -> Alcotest.failf "verify failed: %s" e);
      Alcotest.(check (option reject)) "no divergence vs the original" None
        (Recorder.diff r l.Recorder.log);
      Alcotest.(check int) "all records reloaded" 3
        (List.length (Recorder.records l.Recorder.log))

let test_recorder_of_jsonl_names_physical_line () =
  (* Blank lines count toward the number an error names. *)
  let r = Recorder.create ~machines:2 () in
  radd r ~round_end:1.0 ();
  let header, record =
    match String.split_on_char '\n' (Recorder.to_jsonl r) with
    | header :: record :: _ -> (header, record)
    | _ -> Alcotest.fail "export has a header and a record"
  in
  let artifact =
    String.concat "\n" [ header; record; ""; ""; {|{"type":"record","seq":1}|} ]
  in
  match Recorder.of_jsonl artifact with
  | Ok _ -> Alcotest.fail "a record without fields must not reload"
  | Error e ->
      Alcotest.(check string) "physical line" {|line 5: missing field "kind"|} e

let test_recorder_truncation () =
  let r = Recorder.create ~max_records:2 ~machines:2 () in
  for i = 1 to 4 do
    radd r ~round_end:(float_of_int i) ()
  done;
  Alcotest.(check int) "total counts every add" 4 (Recorder.total r);
  let stored = List.length (Recorder.records r) in
  Alcotest.(check int) "stored is capped" 2 stored;
  Alcotest.(check int) "overflow counted" 2 (Recorder.total r - stored);
  match Recorder.of_jsonl (Recorder.to_jsonl r) with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok l -> (
      match Recorder.verify l with
      | Ok _ -> Alcotest.fail "truncated log must not verify"
      | Error msg ->
          Alcotest.(check bool) "error names truncation" true
            (contains_substring ~needle:"truncat" msg))

let test_recorder_diff_first_divergence () =
  let mk words =
    let r = Recorder.create ~machines:2 () in
    radd r ~round_end:1.0 ();
    radd r ~round_end:2.0 ~words
      ~sent:[| words; 0 |]
      ~recv:[| 0; words |]
      ~max_load:words ();
    r
  in
  let a = mk 2 and b = mk 3 in
  match Recorder.diff a b with
  | Some d ->
      Alcotest.(check int) "first divergent event" 1 d.Recorder.seq;
      Alcotest.(check string) "first divergent field" "words" d.Recorder.field;
      Alcotest.(check string) "left rendering" "2" d.Recorder.a;
      Alcotest.(check string) "right rendering" "3" d.Recorder.b
  | None -> Alcotest.fail "expected a divergence"

let test_recorder_timeline () =
  let r = Recorder.create ~machines:2 () in
  radd r ~label:"alpha" ~round_end:1.0 ();
  radd r ~label:"beta" ~round_end:2.0 ();
  radd r ~label:"alpha" ~round_end:3.0 ();
  let s = Recorder.timeline ~width:8 r in
  Alcotest.(check bool) "lanes named after labels" true
    (contains_substring ~needle:"alpha" s
    && contains_substring ~needle:"beta" s);
  Alcotest.(check bool) "axis present" true (contains_substring ~needle:"0" s)

let test_recorder_shape_validation () =
  let r = Recorder.create ~machines:2 () in
  Alcotest.check_raises "wrong-length arrays rejected"
    (Invalid_argument
       "Recorder.add: per-machine arrays must be empty or one slot per machine")
    (fun () -> radd r ~round_end:1.0 ~sent:[| 1; 2; 3 |] ())

(* The reference for the recorder's line writer: the record line as a
   [Json.t] tree, serialized by [Json.to_string]. *)
let json_of_record (r : Recorder.record) =
  let ints a =
    Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))
  in
  Json.Obj
    [
      ("type", Json.String "record");
      ("seq", Json.Int r.seq);
      ("kind", Json.String r.kind);
      ("label", Json.String r.label);
      ("round_start", Json.float_opt r.round_start);
      ("round_end", Json.float_opt r.round_end);
      ("rounds", Json.float_opt r.rounds);
      ("messages", Json.Int r.messages);
      ("words", Json.Int r.words);
      ("max_load", Json.Int r.max_load);
      ("sent", ints r.sent);
      ("recv", ints r.recv);
      ("retransmits", Json.Int r.retransmits);
      ("dropped", Json.Int r.dropped);
    ]

let reference_header ~machines =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.String "recorder");
         ("version", Json.Int 1);
         ("machines", Json.Int machines);
       ])

(* FNV-1a 64 written independently of the recorder's loop. *)
let reference_digest lines =
  let h =
    List.fold_left
      (fun h line ->
        String.fold_left
          (fun h c ->
            Int64.mul
              (Int64.logxor h (Int64.of_int (Char.code c)))
              0x100000001b3L)
          h line)
      0xcbf29ce484222325L lines
  in
  Printf.sprintf "fnv64:%016Lx" h

type event = {
  e_kind : string;
  e_label : string;
  e_rounds : float;
  e_round_end : float;
  e_ints : int array;  (* messages, words, max_load, retransmits, dropped *)
  e_full : bool;  (* per-machine arrays filled, or both empty *)
  e_sent : int array;
  e_recv : int array;
}

let edge_strings =
  [
    "";
    "exchange";
    "phase:retry";
    {|say "hi"|};
    {|back\slash|};
    "line\nbreak";
    "tab\there";
    "\001ctl";
    "caf\xc3\xa9";
    "\xff\xfe\x7f";
  ]

let edge_floats =
  [
    0.0;
    -0.0;
    -3.0;
    0.5;
    1e15 -. 1.0;
    1e15;
    -1e15;
    9007199254740992.0;
    5e-324;
    nan;
    infinity;
    neg_infinity;
    3.09942372384;
  ]

let edge_ints = [ 0; -1; -17; 42; max_int; min_int ]

let gen_stream =
  let open QCheck.Gen in
  let str = oneof [ oneofl edge_strings; string_size (int_range 0 6) ] in
  let flt =
    oneof
      [
        oneofl edge_floats;
        float;
        map float_of_int (int_range (-1000) 1000);
      ]
  in
  (* Zeros and small counts often, as a net books them: a charge has every
     counter 0 and no arrays, a fault-free run 0 retransmits and drops, and
     an all-to-all equal words on every machine. The writer prints each of
     these through a shortcut. *)
  let int =
    frequency
      [
        (3, return 0);
        (1, int_range 1 3);
        (1, oneofl edge_ints);
        (1, int);
        (1, int_range (-100) 100);
      ]
  in
  int_range 1 4 >>= fun machines ->
  let event =
    map
      (fun ( (e_kind, e_label, e_rounds, e_round_end),
             (e_ints, e_full, e_sent, e_recv) ) ->
        {
          e_kind;
          e_label;
          e_rounds;
          e_round_end;
          e_ints;
          e_full;
          e_sent;
          e_recv;
        })
      (pair
         (quad str str flt flt)
         (quad (array_size (return 5) int) bool
            (array_size (return machines) int)
            (array_size (return machines) int)))
  in
  map (fun evs -> (machines, evs)) (list_size (int_range 0 12) event)

let print_stream (machines, evs) =
  Printf.sprintf "machines=%d, %d events: %s" machines (List.length evs)
    (String.concat "; "
       (List.map
          (fun e ->
            Printf.sprintf "%S %S rounds=%h end=%h ints=[%s] full=%b" e.e_kind
              e.e_label e.e_rounds e.e_round_end
              (String.concat ","
                 (Array.to_list (Array.map string_of_int e.e_ints)))
              e.e_full)
          evs))

let feed r (e : event) =
  Recorder.add r
    {
      seq = Recorder.total r;
      kind = e.e_kind;
      label = e.e_label;
      round_start = e.e_round_end -. e.e_rounds;
      round_end = e.e_round_end;
      rounds = e.e_rounds;
      messages = e.e_ints.(0);
      words = e.e_ints.(1);
      max_load = e.e_ints.(2);
      sent = (if e.e_full then e.e_sent else [||]);
      recv = (if e.e_full then e.e_recv else [||]);
      retransmits = e.e_ints.(3);
      dropped = e.e_ints.(4);
    }

let prop_writer_matches_reference =
  QCheck.Test.make ~name:"writer matches the Json.t reference" ~count:300
    (QCheck.make ~print:print_stream gen_stream)
    (fun (machines, evs) ->
      let r = Recorder.create ~machines () in
      let r0 = Recorder.create ~max_records:0 ~machines () in
      List.iter
        (fun e ->
          feed r e;
          feed r0 e)
        evs;
      let reference =
        reference_header ~machines
        :: List.map
             (fun rc -> Json.to_string (json_of_record rc))
             (Recorder.records r)
      in
      (* header and record lines; the trailer and final newline follow *)
      let exported =
        List.filteri
          (fun i _ -> i <= List.length evs)
          (String.split_on_char '\n' (Recorder.to_jsonl r))
      in
      if exported <> reference then
        QCheck.Test.fail_reportf "export differs:\n%s\nvs reference\n%s"
          (String.concat "\n" exported)
          (String.concat "\n" reference);
      let digest = Recorder.digest_hex r in
      if digest <> reference_digest reference then
        QCheck.Test.fail_reportf "digest %s, reference fold %s" digest
          (reference_digest reference);
      if Recorder.digest_hex r0 <> digest then
        QCheck.Test.fail_reportf "digest-only recorder: %s, storing: %s"
          (Recorder.digest_hex r0) digest;
      Recorder.records r0 = []
      && Recorder.total r0 = List.length evs
      && List.length (Recorder.records r) = List.length evs)

(* A net's clock: each record ends where the next one starts, most records
   add whole rounds, and some add a fraction. The writer prints such a clock
   from the previous value's bytes where it can, so the stream starts next
   to a power of ten, at a half-unit tie of the 12th digit, or past 11
   integer digits, where that shortcut must step aside. *)
let gen_clock =
  let open QCheck.Gen in
  let start =
    oneof
      [
        oneofl
          [
            0.75;
            9.5;
            97.25;
            99.9999999999;
            999.999999999;
            1234567890.125;
            9999999997.5;
            99999999990.5;
            123456789012.5;
            5e-324;
          ];
        float_range 1.0 1e12;
        float_range 0.0 2.0;
      ]
  in
  let step =
    frequency
      [
        (6, map float_of_int (int_range 1 9));
        (1, float_range 0.0 3.0);
        (1, return 1e-7);
      ]
  in
  pair start (list_size (int_range 1 40) step)

let prop_writer_matches_reference_on_a_clock =
  QCheck.Test.make ~name:"writer matches the Json.t reference on a clock"
    ~count:300
    (QCheck.make
       ~print:(fun (start, steps) ->
         Printf.sprintf "start %h, steps %s" start
           (String.concat " " (List.map (Printf.sprintf "%h") steps)))
       gen_clock)
    (fun (start, steps) ->
      let r = Recorder.create ~machines:2 () in
      ignore
        (List.fold_left
           (fun clock rounds ->
             let clock = clock +. rounds in
             feed r
               {
                 e_kind = "charge";
                 e_label = "binary-search check";
                 e_rounds = rounds;
                 e_round_end = clock;
                 e_ints = [| 0; 0; 0; 0; 0 |];
                 e_full = false;
                 e_sent = [||];
                 e_recv = [||];
               };
             clock)
           start steps);
      let reference =
        reference_header ~machines:2
        :: List.map
             (fun rc -> Json.to_string (json_of_record rc))
             (Recorder.records r)
      in
      let exported =
        List.filteri
          (fun i _ -> i <= List.length steps)
          (String.split_on_char '\n' (Recorder.to_jsonl r))
      in
      if exported <> reference then
        QCheck.Test.fail_reportf "export differs:\n%s\nvs reference\n%s"
          (String.concat "\n" exported)
          (String.concat "\n" reference);
      Recorder.digest_hex r = reference_digest reference)

(* --- Invariant ---------------------------------------------------------- *)

(* Literal four-machine records for the synthetic checks. *)
let mk_record ~seq ~kind ~label ~round_start ~rounds ~messages ~words ~max_load
    ~sent ~recv =
  {
    Recorder.seq;
    kind;
    label;
    round_start;
    round_end = round_start +. rounds;
    rounds;
    messages;
    words;
    max_load;
    sent;
    recv;
    retransmits = 0;
    dropped = 0;
  }

let clean_exchange ~seq ~round_start =
  mk_record ~seq ~kind:"exchange" ~label:"x" ~round_start ~rounds:1.0
    ~messages:2 ~words:4 ~max_load:2
    ~sent:[| 2; 0; 2; 0 |]
    ~recv:[| 0; 2; 0; 2 |]

let test_invariant_clean_synthetic () =
  let inv = Invariant.create ~machines:4 () in
  Alcotest.(check int) "clean exchange" 0
    (List.length (Invariant.observe inv (clean_exchange ~seq:0 ~round_start:0.0)));
  let bc =
    mk_record ~seq:1 ~kind:"broadcast" ~label:"b" ~round_start:1.0 ~rounds:1.0
      ~messages:3 ~words:6 ~max_load:2
      ~sent:[| 0; 2; 0; 0 |]
      ~recv:[| 2; 0; 2; 2 |]
  in
  Alcotest.(check int) "clean broadcast" 0
    (List.length (Invariant.observe inv bc));
  let ch =
    mk_record ~seq:2 ~kind:"charge" ~label:"c" ~round_start:2.0 ~rounds:0.5
      ~messages:0 ~words:0 ~max_load:0 ~sent:[||] ~recv:[||]
  in
  Alcotest.(check int) "clean charge" 0 (List.length (Invariant.observe inv ch));
  Alcotest.(check int) "monitor stayed clean" 0 (Invariant.count inv)

let test_invariant_lenzen_cap () =
  (* One round on four machines budgets 4 words per machine; machine 0
     sending 8 must be flagged with the offending machine/round/label. *)
  let inv = Invariant.create ~machines:4 () in
  let r =
    mk_record ~seq:0 ~kind:"exchange" ~label:"hot" ~round_start:0.0 ~rounds:1.0
      ~messages:1 ~words:8 ~max_load:8
      ~sent:[| 8; 0; 0; 0 |]
      ~recv:[| 0; 8; 0; 0 |]
  in
  let vs = Invariant.observe inv r in
  let caps =
    List.filter (fun v -> v.Invariant.invariant = "lenzen_cap") vs
  in
  Alcotest.(check int) "both endpoints over budget" 2 (List.length caps);
  match caps with
  | v :: _ ->
      Alcotest.(check (option int)) "offending machine" (Some 0)
        v.Invariant.machine;
      Alcotest.(check string) "offending label" "hot" v.Invariant.label;
      Alcotest.(check (option (float 1e-9))) "offending round" (Some 1.0)
        v.Invariant.round
  | [] -> Alcotest.fail "no lenzen_cap violation"

let test_invariant_conservation () =
  let inv = Invariant.create ~machines:4 () in
  let r =
    (* 5 words routed but only 4 booked; loads stay inside the 2-round
       budget so only conservation fires. *)
    mk_record ~seq:0 ~kind:"exchange" ~label:"leak" ~round_start:0.0
      ~rounds:2.0 ~messages:1 ~words:4 ~max_load:5
      ~sent:[| 5; 0; 0; 0 |]
      ~recv:[| 0; 5; 0; 0 |]
  in
  let vs = Invariant.observe inv r in
  Alcotest.(check bool) "conservation violation reported" true
    (List.exists (fun v -> v.Invariant.invariant = "conservation") vs)

let test_invariant_monotonic () =
  let inv = Invariant.create ~machines:4 () in
  ignore (Invariant.observe inv (clean_exchange ~seq:0 ~round_start:0.0));
  (* The next record claims to start at round 3 though the clock is at 1. *)
  let vs = Invariant.observe inv (clean_exchange ~seq:1 ~round_start:3.0) in
  Alcotest.(check bool) "clock jump reported" true
    (List.exists (fun v -> v.Invariant.invariant = "monotonic") vs)

let test_invariant_metrics_mirroring () =
  Metrics.reset ();
  let inv = Invariant.create ~machines:4 () in
  ignore (Invariant.observe inv (clean_exchange ~seq:0 ~round_start:3.0));
  (match Shared.metric "invariant.violations" with
  | Some (Metrics.Counter c) ->
      Alcotest.(check int) "total counter incremented" 1 c
  | _ -> Alcotest.fail "invariant.violations counter missing");
  match Shared.metric "invariant.monotonic" with
  | Some (Metrics.Counter c) ->
      Alcotest.(check int) "per-invariant counter incremented" 1 c
  | _ -> Alcotest.fail "invariant.monotonic counter missing"

let test_invariant_algorithms_clean () =
  (* End to end: the sampler (which exercises the matching/placement
     pipeline internally) and the doubling sampler must both produce event
     streams that satisfy every online invariant and reconcile with the
     ledger. *)
  let check_algo name run =
    let prng = Prng.create ~seed:9 in
    let g = run prng in
    let n = Graph.n g in
    let net = Net.create ~n in
    let inv = Invariant.create ~machines:n () in
    Net.add_sink net (fun r -> ignore (Invariant.observe inv r));
    (match name with
    | "sampler" -> ignore (Sampler.sample net prng g)
    | _ -> ignore (Doubling.sample_tree net prng g ~tau0:n));
    Alcotest.(check int) (name ^ ": online invariants clean") 0
      (Invariant.count inv);
    Alcotest.(check int)
      (name ^ ": ledger reconciles")
      0
      (List.length (Net.ledger_violations net inv))
  in
  check_algo "sampler" (fun prng -> Gen.build prng Gen.Lollipop ~n:12);
  check_algo "doubling" (fun _ -> Gen.cycle 12)

let () =
  Alcotest.run "cc_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span tree shape" `Quick test_span_tree_shape;
          Alcotest.test_case "injected clock determinism" `Quick
            test_injected_clock_is_deterministic;
          Alcotest.test_case "spans close on exception" `Quick
            test_with_span_closes_on_exception;
          Alcotest.test_case "disabled tracing is transparent" `Quick
            test_disabled_is_transparent;
          Alcotest.test_case "spans count allocation" `Quick
            test_span_counts_allocation;
          Alcotest.test_case "artifact of_jsonl roundtrip" `Quick
            test_trace_of_jsonl_roundtrip;
          Alcotest.test_case "artifact skips old event lines" `Quick
            test_of_jsonl_skips_old_events;
          Alcotest.test_case "artifact error names the physical line" `Quick
            test_trace_of_jsonl_names_physical_line;
        ] );
      ( "self-time",
        [
          Alcotest.test_case "fold over nested spans" `Quick
            test_self_times_nested;
          Alcotest.test_case "gaps and empty traces" `Quick
            test_self_times_gap_and_empty;
        ] );
      ( "net",
        [
          Alcotest.test_case "span attribution matches Net totals" `Quick
            test_net_events_attributed_to_open_spans;
          Alcotest.test_case "add_sink delivers and detaches" `Quick
            test_add_sink_receives_events;
          Alcotest.test_case "one record reaches every listener" `Quick
            test_one_record_reaches_every_listener;
          Alcotest.test_case "a late sink sees the net's seq" `Quick
            test_late_sink_sees_net_seq;
          Alcotest.test_case "sampler root spans sum to Net.rounds" `Quick
            test_sampler_root_span_matches_ledger;
          Alcotest.test_case "tracing does not perturb the ledger" `Quick
            test_tracing_does_not_perturb_run;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace_event" `Quick test_chrome_export;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export;
          Alcotest.test_case "span tree pretty-printer" `Quick test_pp_tree;
          Alcotest.test_case "bookings counted, spans only exported" `Quick
            test_bookings_counted_not_kept;
          Alcotest.test_case "spans track peak per-machine load" `Quick
            test_span_tracks_max_load;
          Alcotest.test_case "chrome args escaping" `Quick
            test_chrome_export_escapes_args;
        ] );
      ( "json",
        [
          Alcotest.test_case "serialization and escaping" `Quick
            test_json_serialization;
          Alcotest.test_case "parse inverts serialize" `Quick
            test_json_parse_roundtrip;
          Alcotest.test_case "number literals" `Quick test_json_parse_numbers;
          Alcotest.test_case "string escapes and \\u" `Quick
            test_json_parse_escapes;
          Alcotest.test_case "malformed input rejected" `Quick
            test_json_parse_errors;
          Alcotest.test_case "emit control chars" `Quick
            test_json_emit_control_chars;
          Alcotest.test_case "emit quote and backslash" `Quick
            test_json_emit_quote_backslash;
          Alcotest.test_case "emit non-BMP code points" `Quick
            test_json_emit_non_bmp;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "digest determinism and order" `Quick
            test_recorder_digest_determinism;
          Alcotest.test_case "jsonl round-trip verifies" `Quick
            test_recorder_jsonl_roundtrip;
          Alcotest.test_case "reload error names the physical line" `Quick
            test_recorder_of_jsonl_names_physical_line;
          Alcotest.test_case "bounded log truncation" `Quick
            test_recorder_truncation;
          Alcotest.test_case "diff names first divergence" `Quick
            test_recorder_diff_first_divergence;
          Alcotest.test_case "timeline lanes" `Quick test_recorder_timeline;
          Alcotest.test_case "shape validation raises" `Quick
            test_recorder_shape_validation;
          QCheck_alcotest.to_alcotest prop_writer_matches_reference;
          QCheck_alcotest.to_alcotest prop_writer_matches_reference_on_a_clock;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "clean synthetic records" `Quick
            test_invariant_clean_synthetic;
          Alcotest.test_case "lenzen cap violation" `Quick
            test_invariant_lenzen_cap;
          Alcotest.test_case "conservation violation" `Quick
            test_invariant_conservation;
          Alcotest.test_case "monotonicity violation" `Quick
            test_invariant_monotonic;
          Alcotest.test_case "metrics mirroring" `Quick
            test_invariant_metrics_mirroring;
          Alcotest.test_case "sampler and doubling run clean" `Quick
            test_invariant_algorithms_clean;
        ] );
      ( "profile",
        [
          Alcotest.test_case "summary statistics" `Quick test_profile_stats;
          Alcotest.test_case "create validates shapes" `Quick
            test_profile_create_validates;
          Alcotest.test_case "heatmap buckets wide profiles" `Quick
            test_profile_render_buckets;
          Alcotest.test_case "recorded log folds to live profile" `Quick
            test_profile_recorded_log_fold;
        ] );
      ( "benchdata",
        [
          Alcotest.test_case "parse and aggregate" `Quick
            test_benchdata_of_string;
          Alcotest.test_case "schema gate" `Quick
            test_benchdata_rejects_wrong_schema;
          Alcotest.test_case "old engine object is skipped" `Quick
            test_benchdata_skips_engine;
          Alcotest.test_case "diff partitions by threshold" `Quick
            test_benchdata_diff_partitions;
          Alcotest.test_case "self-diff is clean" `Quick
            test_benchdata_diff_self_is_clean;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick
            test_metrics_counters_gauges_histograms;
          Alcotest.test_case "kind conflicts raise" `Quick
            test_metrics_kind_conflict;
          Alcotest.test_case "json export" `Quick test_metrics_json;
          Alcotest.test_case "log-bucket percentiles" `Quick
            test_metrics_percentiles;
          Alcotest.test_case "bucket_of" `Quick test_metrics_bucket_of;
          Alcotest.test_case "value json roundtrip" `Quick
            test_metrics_value_json_roundtrip;
        ] );
    ]
