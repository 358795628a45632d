(* Tests for Cc_serve — the sampling-as-a-service plane.

   The server is single-threaded and cooperative (Server.step), so every
   test drives it in-process: connect plain Unix sockets as clients, write
   request lines, and alternate stepping the server with draining the
   client sockets. No forks, no sleeps, no races. *)

module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Gen = Cc_graph.Gen
module Net = Cc_clique.Net
module Prng = Cc_util.Prng
module Sampler = Cc_sampler.Sampler
module Protocol = Cc_serve.Protocol
module Methods = Cc_serve.Methods
module Plan_cache = Cc_serve.Plan_cache
module Server = Cc_serve.Server

let test_graph = Gen.build (Prng.create ~seed:1) Gen.Complete ~n:8

let fresh_sock =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "%s/cc-serve-test-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !c

let make_server ?(cache_cap = 4) ?max_requests () =
  let sock = fresh_sock () in
  Server.create
    { (Server.default_config ~sock) with cache_cap; max_requests }

(* --- a cooperative test client --- *)

type client = { fd : Unix.file_descr; rbuf : Buffer.t }

let connect srv =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Server.sock_path srv));
  Unix.set_nonblock fd;
  { fd; rbuf = Buffer.create 256 }

let send srv c s =
  let off = ref 0 in
  while !off < String.length s do
    match Unix.write_substring c.fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ignore (Server.step srv)
  done

(* Drain available bytes; return complete lines (remainder stays buffered). *)
let drain c =
  let chunk = Bytes.create 65536 in
  let rec fill () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes c.rbuf chunk 0 n;
        fill ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  fill ();
  let s = Buffer.contents c.rbuf in
  let rec split acc start =
    match String.index_from_opt s start '\n' with
    | Some nl -> split (String.sub s start (nl - start) :: acc) (nl + 1)
    | None ->
        Buffer.clear c.rbuf;
        Buffer.add_substring c.rbuf s start (String.length s - start);
        List.rev acc
  in
  split [] 0

let parse line =
  match Protocol.parse_response line with
  | Ok r -> r
  | Error m -> Alcotest.failf "bad response %S: %s" line m

(* Step the server until [client] has received [n] response lines (the
   responses parsed so far are threaded through). *)
let collect srv c ~n =
  let got = ref [] in
  let steps = ref 0 in
  while List.length !got < n && !steps < 200_000 do
    ignore (Server.step srv);
    got := !got @ List.map parse (drain c);
    incr steps
  done;
  Alcotest.(check int) "response count" n (List.length !got);
  !got

let req ?id ?(k = 1) ?(seed = 0) ?(meth = Protocol.Cc) () =
  Protocol.request_line ?id ~graph:test_graph ~k ~seed ~meth ()

let check_trees_then_done ~g ~k responses =
  let rec go i = function
    | [ Protocol.Done d ] ->
        Alcotest.(check int) "done k" k d.k;
        (d.cache_hit, d.digest)
    | Protocol.Tree t :: rest ->
        Alcotest.(check int) "tree index" i t.index;
        let tree = Tree.of_edges ~n:(Graph.n g) t.edges in
        Alcotest.(check bool) "spanning tree" true
          (Tree.is_spanning_tree g tree);
        (* "# tree N: …" or, for the determinantal and biased methods,
           "# tree N (…)". *)
        let named sep =
          String.starts_with ~prefix:(Printf.sprintf "# tree %d%s" (i + 1) sep)
            t.header
        in
        Alcotest.(check bool) "header names the 1-based tree" true
          (named ":" || named " (");
        go (i + 1) rest
    | _ -> Alcotest.fail "unexpected response shape"
  in
  go 0 responses

(* The digest a one-shot [cctree sample --count k] run would report: one
   net + recorder, tree i drawn from the i-th sequential split. *)
let oneshot_digest ~k ~seed =
  let g = test_graph in
  let n = Graph.n g in
  let net = Net.create ~n in
  let r = Cc_obs.Recorder.create ~machines:n () in
  Net.add_sink net (Cc_obs.Recorder.add r);
  let plan = Sampler.prepare g in
  let master = Prng.create ~seed in
  for _ = 1 to k do
    ignore (Sampler.draw plan net (Prng.split master))
  done;
  Cc_obs.Recorder.digest_hex r

(* --- plan cache --- *)

let test_cache_lru () =
  let calls = ref [] in
  let cache = Plan_cache.create ~cap:2 in
  let get key =
    Plan_cache.find_or_add cache key ~make:(fun () ->
        calls := key :: !calls;
        key ^ "!")
  in
  Alcotest.(check (pair string bool)) "miss a" ("a!", false) (get "a");
  Alcotest.(check (pair string bool)) "miss b" ("b!", false) (get "b");
  Alcotest.(check (pair string bool)) "hit a" ("a!", true) (get "a");
  (* b is now least-recently-used: c evicts it. *)
  Alcotest.(check (pair string bool)) "miss c" ("c!", false) (get "c");
  Alcotest.(check (pair string bool)) "a retained" ("a!", true) (get "a");
  (* c is now least-recently-used: remaking b evicts it, so the cache
     never holds more than its 2 entries. *)
  Alcotest.(check (pair string bool)) "b evicted, remade" ("b!", false) (get "b");
  let hits, misses, evictions = Plan_cache.stats cache in
  Alcotest.(check (list int)) "stats" [ 2; 4; 2 ] [ hits; misses; evictions ];
  Alcotest.(check (list string)) "make called once per miss"
    [ "a"; "b"; "c"; "b" ] (List.rev !calls);
  Alcotest.check_raises "cap >= 1" (Invalid_argument "Plan_cache.create: cap < 1")
    (fun () -> ignore (Plan_cache.create ~cap:0))

(* --- protocol --- *)

let test_protocol_roundtrip () =
  let line =
    Protocol.request_line ~id:"r1" ~graph:test_graph ~k:3 ~seed:9
      ~meth:Protocol.Sequential ()
  in
  (match Protocol.parse_request line with
  | Error m -> Alcotest.failf "parse_request: %s" m
  | Ok r ->
      Alcotest.(check (option string)) "id" (Some "r1") r.Protocol.id;
      Alcotest.(check int) "k" 3 r.Protocol.k;
      Alcotest.(check int) "seed" 9 r.Protocol.seed;
      Alcotest.(check string) "method" "sequential"
        (Methods.name r.Protocol.meth);
      Alcotest.(check string) "graph survives the round trip"
        (Graph.fingerprint test_graph)
        (Graph.fingerprint r.Protocol.graph));
  (* Object-form graphs parse too. *)
  (match
     Protocol.parse_request
       {|{"graph": {"n": 3, "edges": [[0,1],[1,2],[0,2,2.5]]}}|}
   with
  | Error m -> Alcotest.failf "object graph: %s" m
  | Ok r ->
      Alcotest.(check int) "n" 3 (Graph.n r.Protocol.graph);
      Alcotest.(check (float 1e-9)) "weight" 2.5
        (Graph.edge_weight r.Protocol.graph 0 2);
      Alcotest.(check int) "default k" 1 r.Protocol.k;
      Alcotest.(check string) "default method" "cc"
        (Methods.name r.Protocol.meth));
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "not json";
      "[1,2]";
      {|{"k": 1}|};
      {|{"graph": "n 2", "k": 0}|};
      {|{"graph": "garbage"}|};
      {|{"graph": "n 3\ne 0 1 1\ne 1 2 1", "method": "bogus"}|};
      {|{"graph": {"n": 2, "edges": [[0]]}}|};
    ];
  let tree =
    parse (Protocol.tree_line ~id:"x" ~index:1 ~header:"# tree 2: hi\n"
             ~edges:[ (0, 1); (1, 2) ] ())
  in
  (match tree with
  | Protocol.Tree t ->
      Alcotest.(check int) "index" 1 t.index;
      Alcotest.(check string) "header" "# tree 2: hi\n" t.header;
      Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ]
        t.edges
  | _ -> Alcotest.fail "expected tree");
  match
    parse (Protocol.done_line ~k:2 ~cache_hit:true ~digest:"fnv64:0" ~rounds:4.5 ())
  with
  | Protocol.Done d ->
      Alcotest.(check bool) "cache" true d.cache_hit;
      Alcotest.(check (float 0.0)) "rounds" 4.5 d.rounds
  | _ -> Alcotest.fail "expected done"

(* --- server end-to-end (in-process) --- *)

let test_serve_cold_then_warm () =
  let srv = make_server () in
  let c = connect srv in
  send srv c (req ~k:2 ~seed:5 ());
  let hit_cold, d_cold =
    check_trees_then_done ~g:test_graph ~k:2 (collect srv c ~n:3)
  in
  Alcotest.(check bool) "cold request misses" false hit_cold;
  send srv c (req ~k:2 ~seed:5 ());
  let hit_warm, d_warm =
    check_trees_then_done ~g:test_graph ~k:2 (collect srv c ~n:3)
  in
  Alcotest.(check bool) "warm request hits" true hit_warm;
  Alcotest.(check string) "warm digest = cold digest" d_cold d_warm;
  Alcotest.(check string) "digest = one-shot digest"
    (oneshot_digest ~k:2 ~seed:5) d_cold;
  let hits, misses, _ = Server.cache_stats srv in
  Alcotest.(check (pair int int)) "cache counters" (1, 1) (hits, misses);
  Alcotest.(check int) "served" 2 (Server.served srv);
  Server.request_stop srv;
  while Server.step srv do () done;
  Alcotest.(check bool) "socket unlinked after drain" false
    (Sys.file_exists (Server.sock_path srv));
  Unix.close c.fd

(* Run [f] with a reporter that keeps every message of the [cc.serve] Logs
   source at Info; the previous reporter and level come back afterwards. *)
let serve_log_lines f =
  let src =
    List.find (fun s -> Logs.Src.name s = "cc.serve") (Logs.Src.list ())
  in
  let reporter = Logs.reporter () and level = Logs.Src.level src in
  let lines = ref [] in
  let report s _ ~over k msgf =
    if Logs.Src.equal s src then
      msgf (fun ?header:_ ?tags:_ fmt ->
          Format.kasprintf
            (fun line ->
              lines := line :: !lines;
              over ();
              k ())
            fmt)
    else begin
      over ();
      k ()
    end
  in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level src (Some Logs.Info);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level src level)
    f;
  List.rev !lines

let test_serve_lifecycle_lines () =
  let lines =
    serve_log_lines (fun () ->
        let srv = make_server () in
        let c = connect srv in
        send srv c (req ~k:2 ~seed:5 ());
        ignore (collect srv c ~n:3);
        send srv c (req ~k:2 ~seed:5 ());
        ignore (collect srv c ~n:3);
        Server.request_stop srv;
        while Server.step srv do () done;
        Unix.close c.fd)
  in
  let expected =
    [
      "listening on";
      "conn 0: accepted";
      "conn 0: request cc k=2 miss";
      "conn 0: done in";
      "conn 0: request cc k=2 hit";
      "conn 0: done in";
      "conn 0: closed";
      "drained after 2 request(s)";
    ]
  in
  Alcotest.(check int) "one line per transition" (List.length expected)
    (List.length lines);
  List.iter2
    (fun prefix line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S starts with %S" line prefix)
        true
        (String.starts_with ~prefix line))
    expected lines

let test_serve_concurrent_clients () =
  let srv = make_server () in
  let c1 = connect srv and c2 = connect srv in
  (* Both requests are in flight at once; the round-robin scheduler
     interleaves their draws on one loop. *)
  send srv c1 (req ~id:"a" ~k:3 ~seed:1 ());
  send srv c2 (req ~id:"b" ~k:3 ~seed:2 ());
  let r1 = ref [] and r2 = ref [] in
  let steps = ref 0 in
  while (List.length !r1 < 4 || List.length !r2 < 4) && !steps < 200_000 do
    ignore (Server.step srv);
    r1 := !r1 @ List.map parse (drain c1);
    r2 := !r2 @ List.map parse (drain c2);
    incr steps
  done;
  let _, d1 = check_trees_then_done ~g:test_graph ~k:3 !r1 in
  let _, d2 = check_trees_then_done ~g:test_graph ~k:3 !r2 in
  List.iter
    (fun r ->
      match r with
      | Protocol.Tree t -> Alcotest.(check (option string)) "id a" (Some "a") t.id
      | Protocol.Done d -> Alcotest.(check (option string)) "id a" (Some "a") d.id
      | _ -> ())
    !r1;
  Alcotest.(check string) "client 1 digest deterministic"
    (oneshot_digest ~k:3 ~seed:1) d1;
  Alcotest.(check string) "client 2 digest deterministic"
    (oneshot_digest ~k:3 ~seed:2) d2;
  (* Same graph: one prepare served both. *)
  let hits, misses, _ = Server.cache_stats srv in
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (hits, misses);
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c1.fd;
  Unix.close c2.fd

let test_serve_malformed_and_torn_lines () =
  let srv = make_server () in
  let c = connect srv in
  (* Malformed JSON: structured error, connection survives. *)
  send srv c "this is not json\n";
  (match collect srv c ~n:1 with
  | [ Protocol.Error e ] ->
      Alcotest.(check bool) "mentions JSON" true
        (String.length e.message > 0)
  | _ -> Alcotest.fail "expected error response");
  (* Valid JSON, invalid request: still an error, still alive. *)
  send srv c "{\"k\": 1}\n";
  (match collect srv c ~n:1 with
  | [ Protocol.Error _ ] -> ()
  | _ -> Alcotest.fail "expected error response");
  (* A graph string with a malformed edge weight: a structured error, not a
     tree of a silently reweighted graph. *)
  send srv c "{\"graph\": \"n 3\\ne 0 1 abc\\ne 1 2 1\", \"k\": 1}\n";
  (match collect srv c ~n:1 with
  | [ Protocol.Error e ] ->
      Alcotest.(check string) "names the bad edge line"
        "bad graph: Graph.of_string: bad edge line" e.message
  | _ -> Alcotest.fail "expected error response");
  (* A torn request line: half now, half later — served once complete. *)
  let line = req ~k:1 ~seed:3 () in
  let half = String.length line / 2 in
  send srv c (String.sub line 0 half);
  for _ = 1 to 50 do
    ignore (Server.step srv)
  done;
  Alcotest.(check (list string)) "no response for a torn line" []
    (List.map (fun _ -> "x") (drain c));
  send srv c (String.sub line half (String.length line - half));
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  Alcotest.(check int) "only the valid request counts as served" 1
    (Server.served srv);
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c.fd

let test_serve_stale_socket_cleanup () =
  let path = fresh_sock () in
  (* Fake a crashed server: a socket file nobody is accepting on. *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists path);
  let srv = Server.create (Server.default_config ~sock:path) in
  let c = connect srv in
  send srv c (req ());
  ignore (check_trees_then_done ~g:test_graph ~k:1 (collect srv c ~n:2));
  (* A live server on the path must be detected, not clobbered. *)
  Alcotest.(check bool) "second server refused" true
    (match Server.create (Server.default_config ~sock:path) with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check bool) "first server still bound" true
    (Sys.file_exists path);
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c.fd

let test_serve_drain_finishes_active_job () =
  let srv = make_server () in
  let c = connect srv in
  send srv c (req ~k:3 ~seed:4 ());
  (* Let the job start, then ask for a stop mid-request: the drain must
     still deliver all three trees and the done line. *)
  for _ = 1 to 3 do
    ignore (Server.step srv)
  done;
  Server.request_stop srv;
  let got = ref [] in
  let continue = ref true in
  while !continue do
    continue := Server.step srv;
    got := !got @ List.map parse (drain c)
  done;
  got := !got @ List.map parse (drain c);
  ignore (check_trees_then_done ~g:test_graph ~k:3 !got);
  Alcotest.(check bool) "socket gone" false
    (Sys.file_exists (Server.sock_path srv));
  Alcotest.(check bool) "new connections refused" true
    (match connect srv with
    | _ -> false
    | exception Unix.Unix_error _ -> true);
  Unix.close c.fd

let test_serve_survives_client_hangup () =
  let srv = make_server () in
  let c = connect srv in
  send srv c (req ~k:400 ~seed:6 ());
  (* Read the first bytes of the stream, then hang up mid-request. *)
  let chunk = Bytes.create 64 in
  let got = ref 0 and steps = ref 0 in
  while !got = 0 && !steps < 200_000 do
    ignore (Server.step srv);
    (match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | n -> got := n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ());
    incr steps
  done;
  Alcotest.(check bool) "stream started" true (!got > 0);
  (* Empty the receive queue before closing: closing over unread bytes makes
     the server's next read fail with ECONNRESET, which never reaches the
     write path this test is about. *)
  ignore (drain c);
  Unix.close c.fd;
  (* The server keeps writing trees into the dead connection. The write
     must fail with EPIPE and close that connection only — a SIGPIPE would
     kill this whole test process. *)
  for _ = 1 to 20 do
    ignore (Server.step srv)
  done;
  Alcotest.(check bool) "dead connection dropped" true
    (Shared.metric "server.connections" = Some (Cc_obs.Metrics.Gauge 0.0));
  let c2 = connect srv in
  send srv c2 (req ~k:2 ~seed:5 ());
  let _, d = check_trees_then_done ~g:test_graph ~k:2 (collect srv c2 ~n:3) in
  Alcotest.(check string) "next client served" (oneshot_digest ~k:2 ~seed:5) d;
  Server.request_stop srv;
  while Server.step srv do () done;
  Unix.close c2.fd

let test_serve_max_requests_and_methods () =
  let methods = List.length Methods.all in
  let srv = make_server ~max_requests:(methods + 1) () in
  let c = connect srv in
  List.iter
    (fun meth ->
      send srv c (req ~seed:1 ~meth ());
      let responses = collect srv c ~n:2 in
      ignore (check_trees_then_done ~g:test_graph ~k:1 responses);
      (* Each method serves its own one-shot tree 1 at seed 1. *)
      let d =
        Methods.prepare meth test_graph 1
          (Net.create ~n:(Graph.n test_graph))
          (Prng.split (Prng.create ~seed:1))
      in
      match responses with
      | Protocol.Tree t :: _ ->
          let name = Methods.name meth in
          Alcotest.(check string) (name ^ " header") d.header t.header;
          Alcotest.(check (list (pair int int)))
            (name ^ " edges") (Tree.edges d.tree) t.edges
      | _ -> Alcotest.fail "expected a tree response")
    Methods.all;
  (* The last counted request fails: a disconnected graph parses, but
     prepare rejects it before a baseline method ever runs. *)
  let disconnected = Graph.of_unweighted_edges ~n:4 [ (0, 1); (2, 3) ] in
  send srv c
    (Protocol.request_line ~graph:disconnected ~k:1 ~seed:1
       ~meth:Protocol.Wilson ());
  (match collect srv c ~n:1 with
  | [ Protocol.Error _ ] -> ()
  | _ -> Alcotest.fail "expected error response");
  (* Every request answered, the last with an error: the server still
     drains itself, in a handful of steps. *)
  let steps = ref 0 in
  while Server.step srv && !steps < 1_000 do
    incr steps
  done;
  Alcotest.(check int) "served" (methods + 1) (Server.served srv);
  Alcotest.(check bool) "drained" false
    (Sys.file_exists (Server.sock_path srv));
  (* Distinct methods prepare distinct plans: every one was cold, and so
     was the failed prepare. *)
  let hits, misses, _ = Server.cache_stats srv in
  Alcotest.(check (pair int int)) "one miss per request" (0, methods + 1)
    (hits, misses);
  Unix.close c.fd

let () =
  Alcotest.run "cc_serve"
    [
      ( "plan_cache",
        [ Alcotest.test_case "lru semantics" `Quick test_cache_lru ] );
      ( "protocol",
        [ Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip ] );
      ( "server",
        [
          Alcotest.test_case "cold then warm" `Quick test_serve_cold_then_warm;
          Alcotest.test_case "lifecycle lines" `Quick test_serve_lifecycle_lines;
          Alcotest.test_case "concurrent clients" `Quick
            test_serve_concurrent_clients;
          Alcotest.test_case "malformed and torn lines" `Quick
            test_serve_malformed_and_torn_lines;
          Alcotest.test_case "stale socket cleanup" `Quick
            test_serve_stale_socket_cleanup;
          Alcotest.test_case "drain finishes active job" `Quick
            test_serve_drain_finishes_active_job;
          Alcotest.test_case "client hang-up mid-stream" `Quick
            test_serve_survives_client_hangup;
          Alcotest.test_case "max requests + methods" `Quick
            test_serve_max_requests_and_methods;
        ] );
    ]
