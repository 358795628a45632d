(* The four workloads of the wall-clock benchmark.

   Each workload is chosen so that one layer does most of the work while
   another layer is idle, which is what lets a change to one layer show a
   gain on one workload and a prediction of "no change" on another (see
   README.md for the layer map). Every input — graphs, seed lists, request
   streams — is generated from the workload seed; the program under test
   only ever sees the generated inputs, through its public entry points. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Net = Cc_clique.Net
module Trace = Cc_obs.Trace
module Audit = Cc_audit.Audit
module Sampler = Cc_sampler.Sampler
module Server = Cc_serve.Server
module Protocol = Cc_serve.Protocol

type size = Full | Toy  (** [Toy]: n <= 16, for the smoke test *)

type check = {
  failed : int;  (** requests whose output failed a check *)
  notes : string list;  (** one line per check, for the report *)
}

type instance = {
  inputs : (string * Graph.t) list;  (** every generated graph, labelled *)
  run : stop:(int -> bool) -> float array;
      (** send requests 0, 1, ... until [stop i] holds before request [i];
          the result is each request's latency in ms, in request order *)
  rounds : unit -> float;  (** rounds booked by the requests so far *)
  outputs : unit -> Tree.t list list;
      (** the trees of each request so far, in request order *)
  check : unit -> check;
  teardown : unit -> unit;
}

type t = {
  name : string;
  rate : float;
      (** requests per second this workload completed under the default
          engine on a two-vCPU host. It sizes the batch from the time
          budget, so it is a constant, never a measurement: parent and
          change run the same requests. *)
  callers : int;  (** requests in flight at once *)
  setup : size -> seed:int -> requests:int -> instance;
      (** [requests] is how many requests the run will send *)
}

let now = Unix.gettimeofday
let ms_since t0 = 1000.0 *. (now () -. t0)

(* Latencies are collected in a reversed list; requests are few enough. *)
let timed_loop ~stop f =
  let lat = ref [] in
  let i = ref 0 in
  while not (stop !i) do
    lat := f !i :: !lat;
    incr i
  done;
  Array.of_list (List.rev !lat)

let count_invalid g trees =
  List.length (List.filter (fun t -> not (Tree.is_spanning_tree g t)) trees)

(* The distributional check shared by the cc_* workloads and the smoke
   test's negative control: every tree must be a spanning tree, and the
   exact-marginal audit must not reject the sample. A failing verdict marks
   every tree failed, since no single tree is to blame. *)
let audit_check g trees =
  let invalid = count_invalid g trees in
  let audit = Audit.create ~alpha:1e-6 g in
  List.iter (Audit.observe audit) trees;
  let v = Audit.verdict audit in
  let failed = if v.Audit.pass then invalid else List.length trees in
  let note =
    Printf.sprintf
      "%d/%d trees spanning; audit %s at %d trials (max |z| %.2f, threshold %.2f)"
      (List.length trees - invalid)
      (List.length trees)
      (if v.Audit.pass then "pass" else "FAIL")
      v.Audit.at_trials (Audit.max_z audit) (Audit.z_threshold audit)
  in
  (failed, note)

(* --- cc_lollipop, cc_expander -------------------------------------------

   The path of [cctree sample -f F -n N --seed S --count K]: one master
   stream built from the seed generates the graph, [prepare] runs once,
   and tree i is drawn from the i-th split of the master stream onto one
   shared [Net]. *)

let cc_draws family ~n size ~seed ~requests:_ =
  let prng = Prng.create ~seed in
  let g = Gen.build prng family ~n:(match size with Full -> n | Toy -> 8) in
  let plan = Sampler.prepare g in
  let net = Net.create ~n:(Graph.n g) in
  let trees = ref [] in
  let run ~stop =
    timed_loop ~stop (fun _ ->
        let p = Prng.split prng in
        let t0 = now () in
        let r = Trace.with_span "bench.draw" (fun () -> Sampler.draw plan net p) in
        let ms = ms_since t0 in
        trees := r.Sampler.tree :: !trees;
        ms)
  in
  let check () =
    let failed, note = audit_check g (List.rev !trees) in
    { failed; notes = [ note ] }
  in
  {
    inputs = [ (Gen.family_to_string family, g) ];
    run;
    rounds = (fun () -> Net.rounds net);
    outputs = (fun () -> List.rev_map (fun t -> [ t ]) !trees);
    check;
    teardown = ignore;
  }

(* Lollipop: the paper's cover-time worst case, so walks are long and the
   weighted-matching placement dominates. Sized at n=16 because from n=18
   up a few draws per hundred blow the exact DP's state budget and take
   0.5-1 s, which makes a 20 s run's throughput swing by 20% across
   seeds. *)
let cc_lollipop =
  { name = "cc_lollipop"; rate = 88.0; callers = 1; setup = cc_draws Gen.Lollipop ~n:16 }

(* Expander: short walks, about sqrt n phases each paying an O(n^3)
   shortcut solve plus power tables — the dense-kernel layers, and the
   engine's when it runs more than one domain.
   Below n=96 placement overtakes them again. Placement's share comes
   mostly from the rare draws whose DP exceeds its state budget; at
   density 6 log n / n these are rarer than at 3 log n / n, and a larger n
   makes them more frequent, not less. *)
let cc_expander =
  { name = "cc_expander"; rate = 2.9; callers = 1; setup = cc_draws (Gen.Er_log 6.0) ~n:96 }

(* --- serve_mix ------------------------------------------------------------

   A real server over a real Unix socket, in-process: the benchmark pumps
   [Server.step] and two closed-loop clients in turn, so it needs no fork
   and no sleep. Each client sends its next request only after the done
   line of the previous one, as blocking [cctree --connect] callers do. *)

let clients = 2

(* Graph popularity follows a Zipf-like law, so the default 8-entry plan
   cache mixes hits with misses (6 graphs x 3 methods = 18 plan keys). *)
let popularity = [| 0.35; 0.22; 0.15; 0.12; 0.09; 0.07 |]
let methods =
  [| (0.75, Protocol.Cc); (0.15, Protocol.Sequential); (0.10, Protocol.Doubling) |]
let ks = [| (0.5, 1); (0.25, 2); (0.25, 4) |]

(* The requests of a batch, as (graph, method, k): every combination in
   proportion to its probability, counts rounded by largest remainder.
   Drawn independently per request, the few costly combinations (doubling
   with k = 4 on the larger graphs) came up a varying number of times:
   over ten seeds the quartile spread of p90 was 16% and of throughput
   14%. The order is fixed rather than drawn from the seed: combination
   c's m-th card sits at (m + u_c) / count_c along the batch, with the
   offsets u_c spread by the golden ratio, so every stretch of the batch
   holds the mix and the rare combinations do not bunch up. Shuffled by
   the seed, which requests overlapped, and so how many plans and walks
   were live at once, varied with it: peak RSS spread by 11-17% over ten
   seeds, against 6-9% in the fixed order. *)
let deck ~requests =
  let combos =
    Array.to_list popularity
    |> List.mapi (fun gi pg ->
           Array.to_list methods
           |> List.concat_map (fun (pm, meth) ->
                  Array.to_list ks |> List.map (fun (pk, k) -> (pg *. pm *. pk, (gi, meth, k)))))
    |> List.concat
  in
  let shares = List.map (fun (p, c) -> (p *. float_of_int requests, c)) combos in
  let floors = List.map (fun (x, c) -> (Float.to_int x, x -. Float.of_int (Float.to_int x), c)) shares in
  let short = requests - List.fold_left (fun acc (n, _, _) -> acc + n) 0 floors in
  let by_remainder = List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare b a) floors in
  let counts = List.mapi (fun i (n, _, c) -> ((if i < short then n + 1 else n), c)) by_remainder in
  let golden = 0.5 *. (sqrt 5.0 -. 1.0) in
  let cards =
    List.concat
      (List.mapi
         (fun ci (n, c) ->
           let u = Float.rem (float_of_int (ci + 1) *. golden) 1.0 in
           List.init n (fun m -> (((float_of_int m +. u) /. float_of_int n, ci), c)))
         counts)
  in
  Array.of_list (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) cards))

(* The random graphs draw from [prng] in this order. *)
let serve_graphs size prng =
  let sized full toy = match size with Full -> full | Toy -> toy in
  let er_small = Gen.build prng (Gen.Er_log 3.0) ~n:(sized 32 12) in
  let regular = Gen.random_regular prng ~n:(sized 32 12) ~d:4 in
  let er_large = Gen.build prng (Gen.Er_log 3.0) ~n:(sized 40 14) in
  [|
    ("lollipop", Gen.lollipop ~clique:(sized 8 4) ~tail:(sized 8 4));
    ("er", er_small);
    ("grid", Gen.grid ~rows:(sized 6 3) ~cols:(sized 6 4));
    ("regular4", regular);
    ("barbell", Gen.barbell (sized 12 5));
    ("er", er_large);
  |]

type pending = {
  index : int;
  graph : Graph.t;
  k : int;
  sent : float;
  mutable got : Tree.t list;
  mutable bad : bool;  (* an error or malformed line answered it *)
}

type client = { fd : Unix.file_descr; rbuf : Buffer.t; mutable job : pending option }

(* Each setup binds its own socket path, relative to the working
   directory so the benchmark writes only inside its checkout. *)
let sock_counter = ref 0

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

let serve_mix_setup size ~seed ~requests =
  let prng = Prng.create ~seed in
  let graphs = serve_graphs size prng in
  let deck = deck ~requests in
  incr sock_counter;
  let sock = Printf.sprintf ".perf-%d-%d.sock" (Unix.getpid ()) !sock_counter in
  let srv = Server.create (Server.default_config ~sock) in
  let conns =
    Array.init clients (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        { fd; rbuf = Buffer.create 4096; job = None })
  in
  Array.iter (fun c -> Unix.set_nonblock c.fd) conns;
  let finished = ref [] in
  let answered () = List.sort (fun a b -> Int.compare a.index b.index) !finished in
  let rounds = ref 0.0 in
  let chunk = Bytes.create 65536 in
  let run ~stop =
    let latency = Hashtbl.create 256 in
    let next = ref 0 in
    let progress = ref (now ()) in
    (* [stop] may pause the loop (to calibrate), while requests are in
       flight; latencies are read off a clock that stands still then. *)
    let paused = ref 0.0 in
    let clock () = now () -. !paused in
    let stop i =
      let t0 = now () in
      let r = stop i in
      paused := !paused +. (now () -. t0);
      r
    in
    let send c =
      if not (stop !next) then begin
        let gi, meth, k = deck.(!next mod Array.length deck) in
        let req_seed = Prng.int prng 1_000_000 in
        let graph = snd graphs.(gi) in
        let line =
          Protocol.request_line ~id:(string_of_int !next) ~graph ~k ~seed:req_seed ~meth ()
        in
        c.job <- Some { index = !next; graph; k; sent = clock (); got = []; bad = false };
        incr next;
        (* A request is a few KiB, far below the socket buffer. *)
        Unix.clear_nonblock c.fd;
        write_all c.fd line;
        Unix.set_nonblock c.fd
      end
    in
    let complete c (p : pending) =
      Hashtbl.replace latency p.index (1000.0 *. (clock () -. p.sent));
      progress := now ();
      finished := p :: !finished;
      c.job <- None;
      send c
    in
    let on_line c line =
      match c.job with
      | None -> ()
      | Some p -> (
          match Protocol.parse_response line with
          | Ok (Protocol.Tree { edges; _ }) ->
              p.got <- Tree.of_edges ~n:(Graph.n p.graph) edges :: p.got
          | Ok (Protocol.Done { rounds = r; _ }) ->
              rounds := !rounds +. r;
              complete c p
          | Ok (Protocol.Error _) ->
              p.bad <- true;
              complete c p
          | Error _ -> p.bad <- true)
    in
    let pump c =
      (try
         while true do
           let len = Unix.read c.fd chunk 0 (Bytes.length chunk) in
           if len = 0 then raise Exit;
           Buffer.add_subbytes c.rbuf chunk 0 len
         done
       with Exit | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      let s = Buffer.contents c.rbuf in
      match String.rindex_opt s '\n' with
      | None -> ()
      | Some last ->
          Buffer.clear c.rbuf;
          Buffer.add_substring c.rbuf s (last + 1) (String.length s - last - 1);
          List.iter
            (fun line -> if line <> "" then on_line c line)
            (String.split_on_char '\n' (String.sub s 0 last))
    in
    Array.iter send conns;
    while Array.exists (fun c -> c.job <> None) conns do
      Trace.with_span "bench.serve_step" (fun () -> ignore (Server.step srv));
      Trace.with_span "bench.client" (fun () -> Array.iter pump conns);
      if now () -. !progress > 60.0 then failwith "serve_mix: no response for 60 s"
    done;
    Array.init !next (fun i -> Hashtbl.find latency i)
  in
  let check () =
    let answered = answered () in
    let failed =
      List.length
        (List.filter
           (fun p ->
             p.bad || List.length p.got <> p.k || count_invalid p.graph p.got > 0)
           answered)
    in
    let hits, misses, evictions = Server.cache_stats srv in
    {
      failed;
      notes =
        [
          Printf.sprintf "%d/%d requests answered with k spanning trees"
            (List.length answered - failed) (List.length answered);
          Printf.sprintf "plan cache: %d hits, %d misses, %d evictions" hits misses
            evictions;
        ];
    }
  in
  let teardown () =
    Array.iter (fun c -> Unix.close c.fd) conns;
    Server.request_stop srv;
    while Server.step srv do () done
  in
  {
    inputs = Array.to_list graphs;
    run;
    rounds = (fun () -> !rounds);
    outputs = (fun () -> List.map (fun p -> p.got) (answered ()));
    check;
    teardown;
  }

let serve_mix = { name = "serve_mix"; rate = 18.5; callers = clients; setup = serve_mix_setup }

(* --- oracle_sparsify ------------------------------------------------------

   The exact-oracle layer: per job, a weighted graph, its audit oracle (one
   Laplacian solve per edge), a reweighted union of Wilson trees, and one
   determinantal (chain-rule) tree. No Net, no phase walk, no engine work —
   a walk or matching change must predict zero change here.

   Set-up generates a pool of distinct graphs, more than a 20 s batch
   uses; a longer batch cycles through it. Sizes take turns over five values, about 1.7x apart in cost, so p50 and
   p90 each fall inside one size class: with one size, every job costs the
   same and p90 measured only the host's slow spells (121 to 163 ms on
   repeats of one seed). *)

let pool_size = 256
let sizes = function Full -> [| 28; 32; 36; 40; 44 |] | Toy -> [| 6; 7; 8; 9; 10 |]

type job = {
  g : Graph.t;
  leverage_sum : float;
  wilson : Tree.t list;
  union_edges : int;
  det : Tree.t;
}

let oracle_setup size ~seed ~requests:_ =
  let prng = Prng.create ~seed in
  let sizes = sizes size in
  let pool =
    Array.init pool_size (fun i ->
        let p = Prng.split prng in
        let n = sizes.(i mod Array.length sizes) in
        Gen.random_weights p (Gen.build p (Gen.Er_log 3.0) ~n) ~max_weight:8)
  in
  let jobs = ref [] in
  let run ~stop =
    timed_loop ~stop (fun i ->
        let g = pool.(i mod pool_size) in
        let p = Prng.split prng in
        let wilson = ref [] in
        let sampler g prng =
          let t = Cc_walks.Wilson.sample_tree g prng in
          wilson := t :: !wilson;
          t
        in
        let t0 = now () in
        let audit =
          Trace.with_span "bench.audit_create" (fun () -> Audit.create ~alpha:1e-6 g)
        in
        let h =
          Trace.with_span "bench.sparsify" (fun () ->
              Cc_apps.Sparsifier.union p sampler g ~trees:8 ~reweight:true)
        in
        let det =
          Trace.with_span "bench.determinantal" (fun () ->
              Cc_walks.Determinantal.sample_tree g p)
        in
        let ms = ms_since t0 in
        let leverage_sum =
          List.fold_left (fun acc e -> acc +. e.Audit.leverage) 0.0 (Audit.edge_stats audit)
        in
        let union_edges = Graph.num_edges h in
        jobs := { g; leverage_sum; wilson = !wilson; union_edges; det } :: !jobs;
        ms)
  in
  let check () =
    let jobs = List.rev !jobs in
    (* Foster's theorem: the leverage scores of a connected graph sum to
       n-1. A union of spanning trees has at least n-1 edges. *)
    let job_ok j =
      let n = Graph.n j.g in
      Float.abs (j.leverage_sum -. float_of_int (n - 1)) <= 1e-6
      && count_invalid j.g (j.det :: j.wilson) = 0
      && j.union_edges >= n - 1
    in
    let failed = List.length (List.filter (fun j -> not (job_ok j)) jobs) in
    {
      failed;
      notes =
        [
          Printf.sprintf
            "%d/%d jobs: Foster sum = n-1 within 1e-6, every Wilson and \
             determinantal tree spanning"
            (List.length jobs - failed) (List.length jobs);
        ];
    }
  in
  {
    inputs = Array.to_list (Array.map (fun g -> ("pool", g)) pool);
    run;
    rounds = (fun () -> 0.0);
    outputs = (fun () -> List.rev_map (fun j -> j.det :: j.wilson) !jobs);
    check;
    teardown = ignore;
  }

let oracle_sparsify =
  { name = "oracle_sparsify"; rate = 4.9; callers = 1; setup = oracle_setup }

let all = [ cc_lollipop; cc_expander; serve_mix; oracle_sparsify ]
let find name = List.find_opt (fun w -> w.name = name) all
