module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Matmul = Cc_clique.Matmul

let log_src = Logs.Src.create "cc.sampler" ~doc:"phase driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type schur_mode = Plan.schur_mode = Exact_solve | Powering

type config = {
  backend : Matmul.backend;
  bits : int option;
  schur : schur_mode;
  matching : Phase_walk.matching_mode;
  lazy_walk : bool;
}

let default_config =
  {
    backend = Matmul.charged ();
    bits = None;
    schur = Exact_solve;
    matching = Phase_walk.Resample;
    lazy_walk = true;
  }

type result = {
  tree : Tree.t;
  phases : int;
  rounds : float;
  walk_total : int;
  health : Fault.health;
}

(* Rounds for computing SHORTCUT + SCHUR via the paper's powering pipeline:
   log2 k squarings of the 2n x 2n auxiliary chain plus the QR product. *)
let charge_schur_pipeline net backend ~k =
  let n = Net.n net in
  let squarings = Cc_walks.Topdown.levels_for ~len:k in
  Net.charge net ~label:"shortcut powering"
    (Float.of_int squarings *. Matmul.mul_cost net backend ~dim:(2 * n));
  Net.charge net ~label:"schur normalize" (Matmul.mul_cost net backend ~dim:n)

exception Degrade of Fault.failure

(* ------------------------------------------------------------------ *)
(* Prepared plans: the graph-only half of the pipeline, computed once   *)
(* and shared across draws (Section "prepare/draw" of DESIGN.md §13).   *)

(* The graph-only state lives in [Plan]; it is all pure compute, and [draw]
   books the clique's charges for the Schur pipeline and every power table
   on every draw, hit or miss, so the recorder digest never depends on the
   memo state. *)
type plan = {
  state : Plan.t;
  config : config;
  max_phases : int;
      (* Bounds the phase loop, which ends only with probability 1: at the
         Theta(n^3 log n) target length a phase reaches its rho distinct
         vertices with high probability, so passing the bound is a defect. *)
}

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
  {
    state =
      Plan.create ?bits:config.bits ~schur:config.schur
        ~lazy_walk:config.lazy_walk g;
    config;
    max_phases = 64 * (1 + int_of_float (sqrt (Float.of_int n)));
  }

let plan_state plan = plan.state

let plan_stats plan =
  let { Plan.draws; hits; misses; _ } = Plan.stats plan.state in
  (draws, hits, misses)

let draw plan net prng =
  let st = plan.state and config = plan.config in
  let g = st.graph in
  let n = Graph.n g in
  if Net.n net <> n then invalid_arg "Sampler.draw: net size must equal n";
  Plan.count_draw st;
  let faults = Net.faults net in
  Cc_obs.Trace.with_span "sampler.draw"
    ~args:
      [
        ("n", string_of_int n);
        ("backend", Matmul.backend_name config.backend);
        ( "schur",
          match config.schur with
          | Exact_solve -> "exact-solve"
          | Powering -> "powering" );
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
  let rho = st.rho and target_len = st.target_len in
  let visited = Array.make n false in
  visited.(0) <- true;
  let remaining = ref (n - 1) in
  let tree_edges = ref [] in
  let current = ref 0 in
  let phases = ref 0 in
  let walk_total = ref 0 in

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
    if !phases > plan.max_phases then
      failwith "Sampler.sample: max_phases exceeded";
    if !phases = 1 then begin
      (* Phase 1: walk on G itself; first-visit edges read off directly.
         rho = max 2 (ceil (sqrt n)) never exceeds n. The power table comes
         from the plan; Phase_walk books it. *)
      let walk, _ =
        Phase_walk.run net prng ~backend:config.backend ~table:st.table1
          ~machine_of:Fun.id ~start:0 ~rho ~target_len
          ~matching:config.matching
      in
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
      (* Later phases: walk on SCHUR(G, S) with S = {current} + unvisited.
         Pure Schur/shortcut state comes through the plan memo (a hit skips
         the compute); the clique still pays the paper's pipeline rounds on
         every draw, so hit and miss book identical Net events. *)
      let ph = Plan.phase st ~visited ~current:!current in
      charge_schur_pipeline net config.backend ~k:(Plan.schur_k st);
      heal_matrix_shares ();
      let s = ph.s in
      if Array.length s = 2 then begin
        (* Degenerate two-vertex phase: the Schur walk is a single forced
           transition; sample the entry edge directly via Algorithm 4. *)
        let v = s.(1 - ph.start) in
        let u, weights = Plan.first_visit st ph prng ~prev:!current v in
        claim u v;
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
        let walk_local, _ =
          Phase_walk.run net prng ~backend:config.backend
            ~table:(Lazy.force ph.table)
            ~machine_of:(fun i -> s.(i)) ~start:ph.start
            ~rho:(min rho (Array.length s)) ~target_len
            ~matching:config.matching
        in
        walk_total := !walk_total + Array.length walk_local - 1;
        heal_walk_segments (Array.length walk_local);
        let walk = Array.map (fun i -> s.(i)) walk_local in
        (* Algorithm 4: sample the G-entry edge of every newly visited
           vertex from Q[w_{i-1}, u] * w(u,v) / w_S(u) over neighbors u. *)
        let packets = ref [] in
        Array.iteri
          (fun idx v ->
            if idx > 0 && not visited.(v) then begin
              let u, weights =
                Plan.first_visit st ph prng ~prev:walk.(idx - 1) v
              in
              claim u v;
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
    let seq = Sequential.sample ~lazy_walk:config.lazy_walk g prng in
    Net.charge_overhead net ~label:"sequential fallback:retry" (Float.of_int n);
    {
      tree = seq.Sequential.tree;
      phases = !phases + seq.Sequential.phases;
      rounds = Net.rounds net -. rounds_before;
      walk_total = !walk_total + seq.Sequential.walk_total;
      health = Fault.Unrecoverable failure;
    }

(* One-shot convenience: prepare then draw. Byte-identical to drawing from a
   cached plan — the plan only relocates pure compute, never bookings or
   prng draws. *)
let sample ?(config = default_config) net prng g =
  if Net.n net <> Graph.n g then
    invalid_arg "Sampler.sample: net size must equal n";
  if not (Graph.is_connected g) then
    invalid_arg "Sampler.sample: graph must be connected";
  Cc_obs.Trace.with_span "sampler.sample"
    ~args:[ ("n", string_of_int (Graph.n g)) ]
  @@ fun () ->
  let plan = prepare ~config g in
  draw plan net prng
