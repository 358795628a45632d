module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Walk = Cc_walks.Walk
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Prng = Cc_util.Prng
module Kwise_hash = Cc_util.Kwise_hash
module Mat = Cc_linalg.Mat

type scheme =
  | Load_balanced of { independence : int }
  | Unbalanced

type result = {
  walks : int array array;
  iterations : int;
  max_tuples_received : int array;
  rounds : float;
  health : Fault.health;
}

let default_scheme ~n =
  let log_n = max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int n)))) in
  Load_balanced { independence = 8 * log_n }

let lemma4_bound ~n ~k ~c =
  16.0 *. c *. Float.of_int k *. Float.log2 (Float.of_int n)

let next_pow2 x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

(* Concatenate two walk segments sharing the junction vertex. *)
let stitch w1 w2 =
  assert (w1.(Array.length w1 - 1) = w2.(0));
  Array.append w1 (Array.sub w2 1 (Array.length w2 - 1))

(* Corruption is detected when a merged payload fails its checksum; the
   whole iteration re-runs from the checkpoint (the walks array is only
   replaced once an iteration fully succeeds). The budget bounds pathological
   corruption rates. *)
exception Rerun_iteration of string

exception Degrade of Fault.failure

let max_reruns = 16

(* One doubling run producing [walks_per_node] length-tau_pow walks per
   vertex; tau_pow = next power of two >= tau.

   Self-healing (only when a fault injector is armed): each merging
   iteration acts as a checkpoint — [walks] is replaced only after the
   iteration fully succeeds. Tuples lost to drops or crash-stop failures are
   re-routed to the next live machine (metered under [":retry"] labels);
   corrupted tuples force a re-run of the whole iteration from the
   checkpoint; a crashed machine's per-vertex state is adopted by the next
   live machine from the replicated checkpoint (a metered restore). The
   coordinator (machine 0) holds the hash-seed/leader role, so its crash —
   or exhaustion of the re-run budget — degrades the run to the local
   step-by-step baseline behind [Fault.Unrecoverable]. *)
let scheme_name = function
  | Load_balanced _ -> "load-balanced"
  | Unbalanced -> "unbalanced"

let run_multi ?faults net prng g ~tau ~walks_per_node ~scheme =
  let n = Graph.n g in
  if Net.n net <> n then invalid_arg "Doubling.run: net size must equal n";
  if tau < 1 then invalid_arg "Doubling.run: tau < 1";
  if walks_per_node < 1 then invalid_arg "Doubling.run: walks_per_node < 1";
  Cc_obs.Trace.with_span "doubling.run"
    ~args:
      [
        ("tau", string_of_int tau);
        ("walks_per_node", string_of_int walks_per_node);
        ("scheme", scheme_name scheme);
      ]
  @@ fun () ->
  let faults = match faults with Some _ as f -> f | None -> Net.faults net in
  let before_stats =
    match faults with Some f -> Fault.snapshot f | None -> (0, 0, 0)
  in
  let tau_pow = next_pow2 tau in
  let k_init = walks_per_node * tau_pow in
  (* walks.(v) is vertex v's current sequence of walks. The initial one-step
     segments are each machine's local work, drawn from its own stream: one
     stream per vertex, split up front in vertex order. *)
  let streams = Prng.streams prng n in
  let walks =
    Array.init n (fun v ->
        let s = streams.(v) in
        Array.init k_init (fun _ -> [| v; Walk.step g s v |]))
  in
  let k = ref k_init in
  let iterations = ref 0 in
  let loads = ref [] in
  (* --- fault-healing helpers --- *)
  let all_dead f = Degrade { reason = "all machines crashed"; crashed = Fault.crashed f } in
  let live_dest =
    match faults with
    | None -> fun d -> d
    | Some f ->
        fun d ->
          if Fault.is_crashed f d then
            match Fault.next_live f ~n (d + 1) with
            | Some a -> a
            | None -> raise (all_dead f)
          else d
  in
  let handled_crashes = Hashtbl.create 4 in
  (* Adopt the replicated checkpoint of newly crashed machines: the next
     live machine restores the k walks (eta words each) and takes over the
     dead machine's vertex. Machine 0 is the coordinator; losing it is
     unrecoverable. *)
  let absorb_crashes () =
    match faults with
    | None -> ()
    | Some f ->
        List.iter
          (fun m ->
            if not (Hashtbl.mem handled_crashes m) then begin
              Hashtbl.add handled_crashes m ();
              if m = 0 then
                raise
                  (Degrade
                     {
                       reason = "coordinator (machine 0) crashed";
                       crashed = Fault.crashed f;
                     });
              if Fault.next_live f ~n (m + 1) = None then raise (all_dead f);
              let eta_words =
                if Array.length walks.(m) = 0 then 2
                else Array.length walks.(m).(0) + 1
              in
              Net.charge_overhead net ~label:"doubling recover:retry"
                (Float.of_int (max 1 (((!k * eta_words) + n - 1) / n)));
              Fault.note_reroute f !k
            end)
          (Fault.crashed f)
  in
  (* Deliver [pkts], re-routing Lost packets to the next live machine under
     [label ^ ":retry"]; corruption aborts the iteration. Returns the final
     destination of every packet. *)
  let heal_exchange ~label (pkts : Net.packet array) =
    let dst = Array.map (fun p -> p.Net.dst) pkts in
    match faults with
    | None ->
        Net.exchange net ~label (Array.to_list pkts);
        dst
    | Some f ->
        let dv = Net.reliable_exchange net ~label (Array.to_list pkts) in
        if Array.exists (( = ) Net.Corrupted) dv then
          raise (Rerun_iteration label);
        let lost =
          ref
            (List.filter
               (fun i -> dv.(i) = Net.Lost)
               (List.init (Array.length pkts) (fun i -> i)))
        in
        let attempt = ref 0 in
        while !lost <> [] do
          incr attempt;
          if !attempt > n then
            raise
              (Degrade
                 {
                   reason = label ^ ": re-route budget exhausted";
                   crashed = Fault.crashed f;
                 });
          List.iter
            (fun i ->
              match Fault.next_live f ~n (dst.(i) + 1) with
              | Some d -> dst.(i) <- d
              | None -> raise (all_dead f))
            !lost;
          Fault.note_reroute f (List.length !lost);
          let wave =
            List.map
              (fun i ->
                {
                  Net.src = live_dest pkts.(i).Net.src;
                  dst = dst.(i);
                  words = pkts.(i).Net.words;
                })
              !lost
          in
          let before = Net.rounds net in
          let dvr = Net.reliable_exchange net ~label:(label ^ ":retry") wave in
          Net.note_overhead net (Net.rounds net -. before);
          if Array.exists (( = ) Net.Corrupted) dvr then
            raise (Rerun_iteration label);
          lost := List.filteri (fun j _ -> dvr.(j) = Net.Lost) !lost
        done;
        dst
  in
  (* --- one merging iteration; raises Rerun_iteration / Degrade --- *)
  let iterate kk half =
    absorb_crashes ();
    (* Step 1: machine 0 broadcasts the O(log^2 n)-bit hash seed. *)
    let route =
      match scheme with
      | Load_balanced { independence } ->
          let seed_words = Net.words_for_bits net (independence * 31) in
          (match faults with
          | None ->
              Net.broadcast net ~label:"doubling seed" ~src:0 ~words:seed_words
          | Some f ->
              let dv =
                Net.reliable_broadcast net ~label:"doubling seed" ~src:0
                  ~words:seed_words
              in
              (* A corrupted seed share fails its checksum; the recipient
                 re-requests it from the coordinator. Lost shares belong to
                 crashed machines, whose state is adopted anyway. *)
              Array.iter
                (fun d ->
                  if d = Net.Corrupted then begin
                    Net.charge_overhead net ~label:"doubling seed:retry" 1.0;
                    Fault.note_retransmit f 1
                  end)
                dv);
          let h =
            Kwise_hash.create prng ~independence ~domain:(n * (k_init + 1))
              ~range:n
          in
          fun vertex idx -> Kwise_hash.apply2 h ~encode_bound:(k_init + 1) vertex idx
      | Unbalanced -> fun vertex _idx -> vertex
    in
    (* Steps 2-3: placement. Tuples are built in a fixed order so fault
       verdicts are reproducible; first_half collects (origin, i, walk) whose
       continuation key hashes to the destination machine; second_half
       collects (owner, j, walk). *)
    let eta_words = Array.length walks.(0).(0) + 1 in
    let tuples = ref [] in
    for v = 0 to n - 1 do
      for i = 0 to half - 1 do
        let w = walks.(v).(i) in
        let partner = i + half in
        let dest = live_dest (route w.(Array.length w - 1) partner) in
        tuples := (true, v, i, w, dest) :: !tuples
      done;
      for j = half to kk - 1 do
        let w = walks.(v).(j) in
        let dest = live_dest (route v j) in
        tuples := (false, v, j, w, dest) :: !tuples
      done
    done;
    let tuples = Array.of_list (List.rev !tuples) in
    let packets =
      Array.map
        (fun (_, v, _, _, dest) ->
          { Net.src = live_dest v; dst = dest; words = eta_words })
        tuples
    in
    let dests = heal_exchange ~label:"doubling place" packets in
    let first_half = Array.make n [] in
    let second_half = Array.make n [] in
    let tuples_received = Array.make n 0 in
    Array.iteri
      (fun t (is_first, v, idx, w, _) ->
        let dest = dests.(t) in
        if is_first then first_half.(dest) <- (v, idx, w) :: first_half.(dest)
        else second_half.(dest) <- (v, idx, w) :: second_half.(dest);
        if dest <> v then tuples_received.(dest) <- tuples_received.(dest) + 1)
      tuples;
    (* Step 4: merge and return. Index continuations by (owner, j). *)
    let continuations = Hashtbl.create (n * half) in
    Array.iter
      (List.iter (fun (owner, j, w) -> Hashtbl.replace continuations (owner, j) w))
      second_half;
    let merged = Array.init n (fun _ -> Array.make half [||]) in
    let return_packets = ref [] in
    Array.iteri
      (fun dest bucket ->
        List.iter
          (fun (origin, i, w) ->
            let endv = w.(Array.length w - 1) in
            let partner = i + half in
            match Hashtbl.find_opt continuations (endv, partner) with
            | None ->
                (* The continuation lives at the same hash machine by
                   construction; with faults armed its absence means the
                   placement lost data — redo the iteration. Otherwise it is
                   a programming error. *)
                if faults <> None then
                  raise (Rerun_iteration "doubling merge: missing continuation")
                else assert false
            | Some cont ->
                merged.(origin).(i) <- stitch w cont;
                return_packets :=
                  {
                    Net.src = dest;
                    dst = live_dest origin;
                    words = (2 * eta_words) - 1;
                  }
                  :: !return_packets)
          bucket)
      first_half;
    ignore
      (heal_exchange ~label:"doubling return"
         (Array.of_list (List.rev !return_packets)));
    (merged, Array.fold_left max 0 tuples_received)
  in
  try
    while !k > walks_per_node do
      incr iterations;
      Cc_obs.Metrics.incr "doubling.iterations";
      let kk = !k in
      let half = kk / 2 in
      let budget = ref max_reruns in
      let merged = ref None in
      while !merged = None do
        match
          Cc_obs.Trace.with_span "doubling.iteration"
            ~args:[ ("k", string_of_int kk) ]
            (fun () -> iterate kk half)
        with
        | m -> merged := Some m
        | exception Rerun_iteration why ->
            Cc_obs.Metrics.incr "doubling.reruns";
            (match faults with Some f -> Fault.note_rerun f | None -> ());
            decr budget;
            if !budget <= 0 then
              raise
                (Degrade
                   {
                     reason = "iteration re-run budget exhausted: " ^ why;
                     crashed =
                       (match faults with Some f -> Fault.crashed f | None -> []);
                   })
      done;
      let merged, max_load = Option.get !merged in
      Cc_obs.Metrics.observe "doubling.max_tuples" (Float.of_int max_load);
      loads := max_load :: !loads;
      (* Step 5: the iteration committed; this is the next checkpoint. *)
      Array.iteri (fun v m -> walks.(v) <- m) merged;
      k := half
    done;
    let health =
      match faults with
      | None -> Fault.Healthy
      | Some f -> Fault.health_of f ~before:before_stats
    in
    (walks, !iterations, Array.of_list (List.rev !loads), tau_pow, health)
  with Degrade failure ->
    Cc_obs.Metrics.incr "doubling.degraded";
    (* Graceful degradation: regenerate every walk with the step-by-step
       baseline (one exchange per step, tau_pow rounds) so the caller still
       receives valid random walks, and report the failure structurally. *)
    let fallback =
      Array.init n (fun v ->
          Array.init walks_per_node (fun _ ->
              Walk.walk g prng ~start:v ~len:tau_pow))
    in
    Net.charge_overhead net ~label:"doubling fallback:retry"
      (Float.of_int tau_pow);
    ( fallback,
      !iterations,
      Array.of_list (List.rev !loads),
      tau_pow,
      Fault.Unrecoverable failure )

let run ?faults net prng g ~tau ~scheme =
  let before = Net.rounds net in
  let walks, iterations, loads, tau_pow, health =
    run_multi ?faults net prng g ~tau ~walks_per_node:1 ~scheme
  in
  ignore tau_pow;
  {
    walks = Array.map (fun ws -> ws.(0)) walks;
    iterations;
    max_tuples_received = loads;
    rounds = Net.rounds net -. before;
    health;
  }

let sample_tree ?faults net prng g ~tau0 =
  if tau0 < 1 then invalid_arg "Doubling.sample_tree: tau0 < 1";
  let n = Graph.n g in
  let scheme = default_scheme ~n in
  (* Build the walk by stitching independent doubling runs; never resample a
     prefix, so the overall walk is an exact random walk and Aldous-Broder
     applies without conditioning bias. *)
  let visited = Array.make n false in
  visited.(0) <- true;
  let remaining = ref (n - 1) in
  let tree_edges = ref [] in
  let consume walk =
    Array.iteri
      (fun idx v ->
        if idx > 0 && not visited.(v) then begin
          visited.(v) <- true;
          decr remaining;
          tree_edges := (walk.(idx - 1), v) :: !tree_edges
        end)
      walk
  in
  let current_end = ref 0 in
  let tau = ref tau0 and total = ref 0 in
  while !remaining > 0 do
    let r = run ?faults net prng g ~tau:!tau ~scheme in
    let segment = r.walks.(!current_end) in
    consume segment;
    current_end := segment.(Array.length segment - 1);
    total := !total + Array.length segment - 1;
    tau := 2 * !tau
  done;
  (Tree.of_edges ~n !tree_edges, !total)

(* Prepared plans, mirroring Sampler/Sequential for the ccserve cache. The
   doubling pipeline has no reusable graph-only factorization — walks are
   built by local neighbor stepping, re-randomized per draw — so the plan is
   thin: it pins the validated graph, its canonical fingerprint, and tau0.
   Caching one still saves the server re-parsing and re-validating the graph
   per request, and gives the three methods a uniform plan interface. *)
type plan = { plan_graph : Graph.t; plan_fingerprint : string; plan_tau0 : int }

let prepare g ~tau0 =
  if tau0 < 1 then invalid_arg "Doubling.prepare: tau0 < 1";
  if not (Graph.is_connected g) then
    invalid_arg "Doubling.prepare: graph must be connected";
  {
    plan_graph = g;
    plan_fingerprint = Cc_graph.Graph.fingerprint g;
    plan_tau0 = tau0;
  }

let plan_fingerprint plan = plan.plan_fingerprint
let plan_graph plan = plan.plan_graph

let draw plan ?faults net prng =
  sample_tree ?faults net prng plan.plan_graph ~tau0:plan.plan_tau0

let pagerank ?faults net prng g ~walks_per_node ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Doubling.pagerank: epsilon out of range";
  let n = Graph.n g in
  let scheme = default_scheme ~n in
  (* Walk length such that a Geometric(epsilon) stop exceeds it with
     probability <= 1/n^3. *)
  let len =
    max 1
      (int_of_float
         (Float.ceil (3.0 *. Float.log (Float.of_int n) /. epsilon)))
  in
  let walks, _, _, _, _ =
    run_multi ?faults net prng g ~tau:len ~walks_per_node ~scheme
  in
  let counts = Array.make n 0 in
  Array.iter
    (fun per_vertex ->
      Array.iter
        (fun w ->
          (* Geometric(epsilon) number of steps before restart, capped. *)
          let rec stop t =
            if t >= Array.length w - 1 then t
            else if Prng.float prng 1.0 < epsilon then t
            else stop (t + 1)
          in
          let t = stop 0 in
          counts.(w.(t)) <- counts.(w.(t)) + 1)
        per_vertex)
    walks;
  let total = Array.fold_left ( + ) 0 counts in
  Array.map (fun c -> Float.of_int c /. Float.of_int total) counts

let pagerank_exact g ~epsilon =
  let n = Graph.n g in
  let p = Graph.transition_matrix g in
  let pi = ref (Array.make n (1.0 /. Float.of_int n)) in
  let jump = epsilon /. Float.of_int n in
  let rec iterate remaining =
    if remaining = 0 then ()
    else begin
      let stepped = Mat.vec_mul !pi p in
      let next = Array.map (fun x -> jump +. ((1.0 -. epsilon) *. x)) stepped in
      let diff =
        Array.fold_left Float.max 0.0
          (Array.mapi (fun i x -> Float.abs (x -. !pi.(i))) next)
      in
      pi := next;
      if diff > 1e-14 then iterate (remaining - 1)
    end
  in
  iterate 100_000;
  !pi
