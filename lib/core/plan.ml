module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Matmul = Cc_clique.Matmul
module Dist = Cc_util.Dist
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut
module Topdown = Cc_walks.Topdown

type schur_mode = Exact_solve | Powering

(* Later-phase vertex sets are seed-dependent, so the memo is bounded by
   the words its entries hold, never by their number. *)
let memo_budget = 1 lsl 18

type entry = { e_q_rows : Mat.t; e_table : Topdown.table Lazy.t }

type memo = {
  levels : int;
  bits : int option;
  schur : schur_mode;
  lazy_walk : bool;
  table : (string, entry) Hashtbl.t; (* S, as a membership string -> entry *)
  mutable words : int;
  mutable draws : int;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  graph : Graph.t;
  rho : int;
  target_len : int;
  table1 : Topdown.table;
  memo : memo;
}

let create ?bits ?(schur = Exact_solve) ~lazy_walk g =
  let n = Graph.n g in
  (* Theorem 2's ceil(sqrt n) distinct vertices per phase, and Section
     3.1's Theta(n^3 log n) target length, rounded up to a power of two. *)
  let rho = max 2 (int_of_float (Float.ceil (sqrt (Float.of_int n)))) in
  let lg = max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int n)))) in
  let levels = Topdown.levels_for ~len:(max 2 (n * n * n * lg)) in
  let trans1 = Graph.transition_matrix g in
  (* Lazy mixing (I + P) / 2 kills the periodicity of bipartite (sub)graphs
     so that coarse-level truncation can fire; self-loop steps never produce
     first-visit edges, and the embedded non-lazy walk is exactly the
     original walk, so the sampled tree's law is unchanged. *)
  let trans1 = if lazy_walk then Mat.half_lazy trans1 else trans1 in
  (* The phase-1 power table is the dominant graph-only cost, computed once
     here; the CC sampler books it on every draw (Phase_walk.run). *)
  {
    graph = g;
    rho;
    target_len = 1 lsl levels;
    table1 = Topdown.table (Matmul.power_table_pure ?bits trans1 ~levels);
    memo =
      {
        levels;
        bits;
        schur;
        lazy_walk;
        table = Hashtbl.create 32;
        words = 0;
        draws = 0;
        hits = 0;
        misses = 0;
      };
  }

let schur_k t =
  let n = Graph.n t.graph in
  1 lsl Topdown.levels_for ~len:(16 * n * n * n)

type stats = { draws : int; hits : int; misses : int; words : int }

let stats { memo = m; _ } =
  { draws = m.draws; hits = m.hits; misses = m.misses; words = m.words }

let count_draw t = t.memo.draws <- t.memo.draws + 1

type phase = {
  s : int array;
  start : int;
  ws : float array;
  q_rows : Mat.t;
  table : Topdown.table Lazy.t;
}

(* The number of vertices of the ascending [s] below [v]: v's index in s
   when v is in S. *)
let rank s v =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The pure per-S computation of a later phase. *)
let compute t ~s ~in_s =
  let g = t.graph and m = t.memo in
  let { Schur.q_rows; transition } =
    match m.schur with
    | Exact_solve -> Schur.phase_exact g ~s
    | Powering ->
        let q = Shortcut.approx ?bits:m.bits g ~in_s ~k:(schur_k t) in
        {
          q_rows =
            Mat.submatrix q ~row_idx:s ~col_idx:(Array.init (Graph.n g) Fun.id);
          transition = Schur.transition_via_shortcut g q ~s;
        }
  in
  (* Clamp numeric dust and renormalize, so the walk receives a proper
     stochastic matrix. *)
  let table =
    lazy
      (let p = Mat.sanitize_stochastic transition in
       let trans = if m.lazy_walk then Mat.half_lazy p else p in
       Topdown.table (Matmul.power_table_pure ?bits:m.bits trans ~levels:m.levels))
  in
  { e_q_rows = q_rows; e_table = table }

let phase t ~visited ~current =
  let n = Array.length visited and m = t.memo in
  let in_s = Array.init n (fun v -> v = current || not visited.(v)) in
  let s = Array.of_list (List.filter (Array.get in_s) (List.init n Fun.id)) in
  let start = rank s current in
  let key = String.init n (fun v -> if in_s.(v) then '1' else '0') in
  let e =
    match Hashtbl.find_opt m.table key with
    | Some e ->
        m.hits <- m.hits + 1;
        Cc_obs.Metrics.incr "sampler.plan.memo_hit";
        e
    | None ->
        m.misses <- m.misses + 1;
        Cc_obs.Metrics.incr "sampler.plan.memo_miss";
        let e = compute t ~s ~in_s in
        (* Q's rows of S are |S| x n; the power table's [levels + 1]
           matrices, and the transition it squares while it is built, are
           |S| x |S|, and its shared cdf |S| long. An upper bound: a table
           that stopped squaring aliases its later levels (Mat.squarings),
           and one without a mixed level has no cdf, but the table is built
           lazily and counting only what it holds would retain more
           entries. *)
        let k = Array.length s in
        let words = (k * n) + ((m.levels + 2) * k * k) + k in
        if m.words + words <= memo_budget then begin
          Hashtbl.add m.table key e;
          m.words <- m.words + words
        end;
        e
  in
  (* w_S of every vertex, for first_visit. It costs O(n + m), so a hit
     recomputes it rather than the memo's entries holding n more words. *)
  let ws = Array.init n (Shortcut.s_weight t.graph ~in_s) in
  { s; start; ws; q_rows = e.e_q_rows; table = e.e_table }

let first_visit t ph prng ~prev v =
  let row = rank ph.s prev in
  if row = Array.length ph.s || ph.s.(row) <> prev then
    invalid_arg "Plan.first_visit: prev is not in S";
  let weights =
    Shortcut.first_visit_weights t.graph ph.q_rows ~ws:ph.ws ~row ~target:v
  in
  (fst weights.(Dist.sample_weights (Array.map snd weights) prng), weights)
