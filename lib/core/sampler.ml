module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Matmul = Cc_clique.Matmul
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut

let log_src = Logs.Src.create "cc.sampler" ~doc:"phase driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type schur_mode = Exact_solve | Powering of { k : int option }

type config = {
  backend : Matmul.backend;
  bits : int option;
  rho : int option;
  target_len : int option;
  schur : schur_mode;
  matching : Phase_walk.matching_mode;
  max_phases : int;
  lazy_walk : bool;
}

let default_config =
  {
    backend = Matmul.charged ();
    bits = None;
    rho = None;
    target_len = None;
    schur = Exact_solve;
    matching = Phase_walk.Resample;
    max_phases = 0 (* resolved against n at sample time *);
    lazy_walk = true;
  }

type result = {
  tree : Tree.t;
  phases : int;
  rounds : float;
  walk_total : int;
  phase_stats : Phase_walk.stats list;
  health : Fault.health;
}

let next_pow2 x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

let log2_ceil x = (* for x a power of two this is exact *)
  let rec go p e = if p >= x then e else go (2 * p) (e + 1) in
  go 1 0

let default_schur_k n = next_pow2 (16 * n * n * n)

(* Rounds for computing SHORTCUT + SCHUR via the paper's powering pipeline:
   log2 k squarings of the 2n x 2n auxiliary chain plus the QR product. *)
let charge_schur_pipeline net backend ~k =
  let n = Net.n net in
  let squarings = log2_ceil k in
  Net.charge net ~label:"shortcut powering"
    (Float.of_int squarings *. Matmul.mul_cost net backend ~dim:(2 * n));
  Net.charge net ~label:"schur normalize" (Matmul.mul_cost net backend ~dim:n)

exception Degrade of Fault.failure

(* ------------------------------------------------------------------ *)
(* Prepared plans: the graph-only half of the pipeline, computed once   *)
(* and shared across draws (Section "prepare/draw" of DESIGN.md §13).   *)

(* Per-phase memo entry for one vertex set S of a later phase: the
   shortcut matrix Q, the sanitized (and lazy-mixed) Schur transition, and
   the power-table slot Phase_walk fills on first use. All of it is pure
   compute — the clique's charges for the Schur pipeline and the power
   table are booked by [draw] on every draw, hit or miss, so the recorder
   digest never depends on the memo state. *)
type phase_entry = {
  e_q : Mat.t;
  e_trans : Mat.t;
  e_powers : Mat.t array option ref;
}

type plan = {
  plan_graph : Graph.t;
  plan_fingerprint : string;
  plan_config : config;
  plan_rho : int;
  plan_target_len : int;
  plan_max_phases : int;
  plan_trans1 : Mat.t; (* phase-1 (lazy-mixed) transition matrix of G *)
  plan_powers1 : Mat.t array option ref; (* its power table, filled eagerly *)
  plan_memo : (string, phase_entry) Hashtbl.t; (* S-array -> entry *)
  mutable plan_memo_words : int; (* words the retained entries hold *)
  mutable plan_draws : int;
  mutable plan_memo_hits : int;
  mutable plan_memo_misses : int;
}

(* Later-phase vertex sets are seed-dependent, so the memo is bounded by
   the words its entries hold: an entry is retained only while it fits in
   [memo_budget] words (2 MiB), and none is ever evicted. Past the budget,
   fresh entries are computed but not retained, which costs recompute,
   never correctness. *)
let memo_budget = 1 lsl 18

let resolve_rho config n =
  match config.rho with
  | Some r -> max 2 (min r n)
  | None -> max 2 (int_of_float (Float.ceil (sqrt (Float.of_int n))))

let resolve_target_len config n =
  match config.target_len with
  | Some l -> next_pow2 (max 2 l)
  | None ->
      let lg = max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int n)))) in
      next_pow2 (max 2 (n * n * n * lg))

let resolve_max_phases config n =
  if config.max_phases > 0 then config.max_phases
  else 64 * (1 + int_of_float (sqrt (Float.of_int n)))

let prepare ?(config = default_config) g =
  if not (Graph.is_connected g) then
    invalid_arg "Sampler.prepare: graph must be connected";
  let n = Graph.n g in
  Cc_obs.Metrics.incr "sampler.prepares";
  Cc_obs.Trace.with_span "sampler.prepare"
    ~args:
      [
        ("n", string_of_int n);
        ("backend", Matmul.backend_name config.backend);
      ]
  @@ fun () ->
  let target_len = resolve_target_len config n in
  let trans1 = Graph.transition_matrix g in
  (* Lazy mixing (I + P) / 2 kills the periodicity of bipartite (sub)graphs
     so that coarse-level truncation can fire; self-loop steps never produce
     first-visit edges, and the embedded non-lazy walk is exactly the
     original walk, so the sampled tree's law is unchanged. *)
  let trans1 = if config.lazy_walk then Mat.half_lazy trans1 else trans1 in
  (* The phase-1 power table is the dominant graph-only cost; computing it
     pure here and replaying its bookings at draw time (Matmul.power_table
     ~reuse) yields bit-identical matrices and bookings to a cold run. *)
  let levels = log2_ceil target_len in
  let powers1 = Matmul.power_table_pure ?bits:config.bits trans1 ~levels in
  {
    plan_graph = g;
    plan_fingerprint = Graph.fingerprint g;
    plan_config = config;
    plan_rho = resolve_rho config n;
    plan_target_len = target_len;
    plan_max_phases = resolve_max_phases config n;
    plan_trans1 = trans1;
    plan_powers1 = ref (Some powers1);
    plan_memo = Hashtbl.create 32;
    plan_memo_words = 0;
    plan_draws = 0;
    plan_memo_hits = 0;
    plan_memo_misses = 0;
  }

let plan_fingerprint plan = plan.plan_fingerprint
let plan_config plan = plan.plan_config
let plan_graph plan = plan.plan_graph

let plan_stats plan =
  (plan.plan_draws, plan.plan_memo_hits, plan.plan_memo_misses)

let memo_key s =
  let buf = Buffer.create (4 * Array.length s) in
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',')
    s;
  Buffer.contents buf

(* The pure per-S computation of a later phase, memoized on the plan. A hit
   skips the Shortcut/Schur work (and its trace spans) entirely. *)
let phase_entry plan ~s =
  let key = memo_key s in
  match Hashtbl.find_opt plan.plan_memo key with
  | Some e ->
      plan.plan_memo_hits <- plan.plan_memo_hits + 1;
      Cc_obs.Metrics.incr "sampler.plan.memo_hit";
      e
  | None ->
      plan.plan_memo_misses <- plan.plan_memo_misses + 1;
      Cc_obs.Metrics.incr "sampler.plan.memo_miss";
      let g = plan.plan_graph in
      let n = Graph.n g in
      let config = plan.plan_config in
      let in_s = Schur.members ~n ~s in
      let q =
        match config.schur with
        | Exact_solve -> Shortcut.exact g ~in_s
        | Powering { k } ->
            let k = Option.value ~default:(default_schur_k n) k in
            Shortcut.approx ?bits:config.bits g ~in_s ~k
      in
      (* Clamp numeric dust and renormalize, so Phase_walk receives a proper
         stochastic matrix. *)
      let trans =
        Mat.sanitize_stochastic (Schur.transition_via_shortcut g q ~s)
      in
      let trans = if config.lazy_walk then Mat.half_lazy trans else trans in
      let e = { e_q = q; e_trans = trans; e_powers = ref None } in
      (* Q is n x n; the transition and its power table of [levels + 1]
         matrices are |S| x |S|. An upper bound: a table that stopped
         squaring aliases its later levels (Mat.squarings), but counting
         only distinct matrices would retain more entries. *)
      let m = Array.length s and levels = log2_ceil plan.plan_target_len in
      let words = (n * n) + ((levels + 2) * m * m) in
      if plan.plan_memo_words + words <= memo_budget then begin
        Hashtbl.add plan.plan_memo key e;
        plan.plan_memo_words <- plan.plan_memo_words + words
      end;
      e

let draw plan ?faults net prng =
  let g = plan.plan_graph in
  let config = plan.plan_config in
  let n = Graph.n g in
  if Net.n net <> n then invalid_arg "Sampler.draw: net size must equal n";
  plan.plan_draws <- plan.plan_draws + 1;
  let faults = match faults with Some _ as f -> f | None -> Net.faults net in
  Cc_obs.Trace.with_span "sampler.draw"
    ~args:
      [
        ("n", string_of_int n);
        ("backend", Matmul.backend_name config.backend);
        ( "schur",
          match config.schur with
          | Exact_solve -> "exact-solve"
          | Powering _ -> "powering" );
        ( "matching",
          match config.matching with
          | Phase_walk.Resample -> "resample"
          | Phase_walk.Magical -> "magical" );
      ]
  @@ fun () ->
  let before_stats =
    match faults with Some f -> Fault.snapshot f | None -> (0, 0, 0)
  in
  let rounds_before = Net.rounds net in
  (* The Schur powering pipeline needs every machine's row block, so a
     crash-stop failure anywhere is unrecoverable for the distributed
     pipeline; the run degrades to the sequential baseline instead. *)
  let check_alive () =
    match faults with
    | Some f when Fault.any_crashed f ->
        raise
          (Degrade
             {
               reason = "machine crashed: the Schur pipeline needs every machine";
               crashed = Fault.crashed f;
             })
    | _ -> ()
  in
  (* Deliver [packets] through the retransmitting transport. Corrupted
     payloads are caught by the application checksum: the holder recomputes
     the piece from its local state and re-sends, metered under [:retry].
     [Lost] means an endpoint crashed (transport retries exhaust only at
     astronomically unlikely drop streaks) — degrade. *)
  let heal ~label ~recompute_rounds packets =
    match faults with
    | None -> Net.exchange net ~label packets
    | Some f ->
        let dv = Net.reliable_exchange net ~label packets in
        let corrupted =
          Array.fold_left
            (fun acc d -> if d = Net.Corrupted then acc + 1 else acc)
            0 dv
        in
        if corrupted > 0 then begin
          Net.charge_overhead net ~label:(label ^ ":retry")
            (Float.of_int corrupted *. recompute_rounds);
          Fault.note_retransmit f corrupted
        end;
        if Array.exists (( = ) Net.Lost) dv then begin
          check_alive ();
          raise
            (Degrade
               {
                 reason = label ^ ": delivery failed after retries";
                 crashed = Fault.crashed f;
               })
        end
  in
  (* Simulated pipeline traffic, only materialized under fault injection
     (the fault-free cost is already folded into the analytic charges):
     [matrix shares] is the ring exchange of row-block shares feeding each
     squaring; [walk segments] collects the filled walk chunks at the
     leader. Both give the injector concrete packets to break. *)
  let heal_matrix_shares () =
    match faults with
    | None -> ()
    | Some _ ->
        check_alive ();
        let words = Net.entry_words net in
        heal ~label:"matrix shares" ~recompute_rounds:1.0
          (List.init n (fun i -> { Net.src = i; dst = (i + 1) mod n; words }))
  in
  let heal_walk_segments walk_len =
    match faults with
    | None -> ()
    | Some _ ->
        check_alive ();
        let chunk = max 1 ((walk_len + n - 1) / n) in
        heal ~label:"walk segments"
          ~recompute_rounds:(Float.of_int (max 1 (chunk / n)))
          (List.init (n - 1) (fun i ->
               { Net.src = i + 1; dst = 0; words = chunk }))
  in
  let rho = plan.plan_rho in
  let target_len = plan.plan_target_len in
  let max_phases = plan.plan_max_phases in
  let visited = Array.make n false in
  visited.(0) <- true;
  let remaining = ref (n - 1) in
  let tree_edges = ref [] in
  let current = ref 0 in
  let phases = ref 0 in
  let walk_total = ref 0 in
  let stats_acc = ref [] in

  (* Record a first-visit edge (u, v) for newly visited v. *)
  let claim u v =
    assert (not visited.(v));
    visited.(v) <- true;
    decr remaining;
    tree_edges := (u, v) :: !tree_edges
  in

  try
  while !remaining > 0 do
    incr phases;
    Cc_obs.Metrics.incr "sampler.phases";
    Cc_obs.Trace.with_span "sampler.phase"
      ~args:
        [
          ("phase", string_of_int !phases);
          ("unvisited", string_of_int !remaining);
        ]
    @@ fun () ->
    check_alive ();
    Log.debug (fun m ->
        m "phase %d: %d unvisited, walk at vertex %d" !phases !remaining !current);
    if !phases > max_phases then
      failwith "Sampler.sample: max_phases exceeded (target_len too small?)";
    if !phases = 1 then begin
      (* Phase 1: walk on G itself; first-visit edges read off directly.
         When fewer than rho vertices exist, truncate at full coverage
         instead (the walk past cover time adds no first-visit edges). The
         transition matrix and its power table come from the plan; the
         bookings are replayed inside Phase_walk either way. *)
      let walk, stats =
        Phase_walk.run net prng ~backend:config.backend ?bits:config.bits
          ~powers_slot:plan.plan_powers1 ~trans:plan.plan_trans1
          ~machine_of:(fun i -> i)
          ~start:0 ~rho:(min rho n) ~target_len ~matching:config.matching ()
      in
      stats_acc := stats :: !stats_acc;
      walk_total := !walk_total + Array.length walk - 1;
      heal_walk_segments (Array.length walk);
      let fresh = ref [] in
      Array.iteri
        (fun idx v ->
          if idx > 0 && not visited.(v) then begin
            claim walk.(idx - 1) v;
            fresh := v :: !fresh
          end)
        walk;
      (* M distributes the first-visit edges to the vertices' machines. *)
      heal ~label:"first-visit edges" ~recompute_rounds:1.0
        (List.map (fun v -> { Net.src = 0; dst = v; words = 2 }) !fresh);
      current := walk.(Array.length walk - 1)
    end
    else begin
      (* Later phases: walk on SCHUR(G, S) with S = {current} + unvisited. *)
      let s =
        Array.of_list
          (List.filter
             (fun v -> v = !current || not visited.(v))
             (List.init n (fun v -> v)))
      in
      let in_s = Schur.members ~n ~s in
      (* Pure Schur/shortcut state comes through the plan memo (a hit skips
         the compute); the clique still pays the paper's pipeline rounds on
         every draw, so hit and miss book identical Net events. *)
      let entry = phase_entry plan ~s in
      let q = entry.e_q in
      let k_charge =
        match config.schur with
        | Exact_solve -> default_schur_k n
        | Powering { k } -> Option.value ~default:(default_schur_k n) k
      in
      charge_schur_pipeline net config.backend ~k:k_charge;
      heal_matrix_shares ();
      let trans = entry.e_trans in
      let local_of = Hashtbl.create (Array.length s) in
      Array.iteri (fun i v -> Hashtbl.add local_of v i) s;
      let start_local = Hashtbl.find local_of !current in
      if Array.length s = 2 then begin
        (* Degenerate two-vertex phase: the Schur walk is a single forced
           transition; sample the entry edge directly via Algorithm 4. *)
        let v = if s.(0) = !current then s.(1) else s.(0) in
        let weights =
          Shortcut.first_visit_weights g q ~in_s ~prev:!current ~target:v
        in
        let idx = Dist.sample_weights (Array.map snd weights) prng in
        claim (fst weights.(idx)) v;
        heal ~label:"first-visit edges" ~recompute_rounds:1.0
          ({ Net.src = 0; dst = v; words = 2 }
          :: Array.to_list
               (Array.map
                  (fun (u, _) -> { Net.src = u; dst = v; words = 2 })
                  weights));
        walk_total := !walk_total + 1;
        current := v
      end
      else begin
        (* Cap rho at |S|: the final phases have fewer than rho unvisited
           vertices, and truncating at the |S|-th distinct vertex stops the
           walk exactly at coverage of S (beyond it no first-visit edge can
           appear), keeping the materialized walk near the phase cover time. *)
        let walk_local, stats =
          Phase_walk.run net prng ~backend:config.backend ?bits:config.bits
            ~powers_slot:entry.e_powers ~trans
            ~machine_of:(fun i -> s.(i))
            ~start:start_local ~rho:(min rho (Array.length s)) ~target_len
            ~matching:config.matching ()
        in
        stats_acc := stats :: !stats_acc;
        walk_total := !walk_total + Array.length walk_local - 1;
        heal_walk_segments (Array.length walk_local);
        let walk = Array.map (fun i -> s.(i)) walk_local in
        (* Algorithm 4: sample the G-entry edge of every newly visited
           vertex from Q[w_{i-1}, u] * w(u,v) / w_S(u) over neighbors u. *)
        let packets = ref [] in
        Array.iteri
          (fun idx v ->
            if idx > 0 && not visited.(v) then begin
              let prev = walk.(idx - 1) in
              let weights =
                Shortcut.first_visit_weights g q ~in_s ~prev ~target:v
              in
              let widx = Dist.sample_weights (Array.map snd weights) prng in
              claim (fst weights.(widx)) v;
              packets := { Net.src = 0; dst = v; words = 2 } :: !packets;
              Array.iter
                (fun (u, _) ->
                  packets := { Net.src = u; dst = v; words = 2 } :: !packets)
                weights
            end)
          walk;
        heal ~label:"first-visit edges" ~recompute_rounds:1.0 !packets;
        current := walk.(Array.length walk - 1)
      end
    end
  done;
  let tree = Tree.of_edges ~n !tree_edges in
  assert (Tree.is_spanning_tree g tree);
  Cc_obs.Metrics.observe "sampler.walk_total" (Float.of_int !walk_total);
  let health =
    match faults with
    | None -> Fault.Healthy
    | Some f -> Fault.health_of f ~before:before_stats
  in
  {
    tree;
    phases = !phases;
    rounds = Net.rounds net -. rounds_before;
    walk_total = !walk_total;
    phase_stats = List.rev !stats_acc;
    health;
  }
  with Degrade failure ->
    Cc_obs.Metrics.incr "sampler.degraded";
    (* Graceful degradation: the live machines ship the graph to the leader,
       which runs the sequential phased sampler locally and distributes the
       result — metered as a gather + broadcast of O(n^2) words. The tree is
       still an exact sample; only the round complexity is lost. *)
    Log.warn (fun m -> m "degrading to sequential sampler: %a" Fault.pp_health
        (Fault.Unrecoverable failure));
    let seq = Sequential.sample ?rho:config.rho ?target_len:config.target_len
        ~lazy_walk:config.lazy_walk g prng
    in
    Net.charge_overhead net ~label:"sequential fallback:retry" (Float.of_int n);
    {
      tree = seq.Sequential.tree;
      phases = !phases + seq.Sequential.phases;
      rounds = Net.rounds net -. rounds_before;
      walk_total = !walk_total + seq.Sequential.walk_total;
      phase_stats = List.rev !stats_acc;
      health = Fault.Unrecoverable failure;
    }

(* One-shot convenience: prepare then draw. Byte-identical to drawing from a
   cached plan — the plan only relocates pure compute, never bookings or
   prng draws. *)
let sample ?(config = default_config) ?faults net prng g =
  if Net.n net <> Graph.n g then
    invalid_arg "Sampler.sample: net size must equal n";
  if not (Graph.is_connected g) then
    invalid_arg "Sampler.sample: graph must be connected";
  Cc_obs.Trace.with_span "sampler.sample"
    ~args:[ ("n", string_of_int (Graph.n g)) ]
  @@ fun () ->
  let plan = prepare ~config g in
  draw plan ?faults net prng

let sample_tree ?config ?faults ?(seed = 0) g =
  let net = Net.create ~n:(Graph.n g) in
  let net =
    match faults with Some f -> Net.with_faults f net | None -> net
  in
  let prng = Prng.create ~seed in
  (sample ?config net prng g).tree
