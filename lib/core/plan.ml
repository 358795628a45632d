module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Matmul = Cc_clique.Matmul
module Dist = Cc_util.Dist
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut
module Topdown = Cc_walks.Topdown

type schur_mode = Exact_solve | Powering of { k : int option }

(* Later-phase vertex sets are seed-dependent, so the memo is bounded by
   the words its entries hold, never by their number. *)
let memo_budget = 1 lsl 18

type entry = { e_q : Mat.t; e_powers : Mat.t array Lazy.t }

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
  powers1 : Mat.t array;
  memo : memo;
}

let create ?rho ?target_len ?bits ?(schur = Exact_solve) ~lazy_walk g =
  let n = Graph.n g in
  let rho =
    match rho with
    | Some r -> max 2 (min r n)
    | None -> max 2 (int_of_float (Float.ceil (sqrt (Float.of_int n))))
  in
  let len =
    match target_len with
    | Some l -> l
    | None ->
        let lg = max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int n)))) in
        n * n * n * lg
  in
  let levels = Topdown.levels_for ~len:(max 2 len) in
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
    powers1 = Matmul.power_table_pure ?bits trans1 ~levels;
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
  match t.memo.schur with
  | Powering { k = Some k } -> k
  | Exact_solve | Powering { k = None } ->
      let n = Graph.n t.graph in
      1 lsl Topdown.levels_for ~len:(16 * n * n * n)

type stats = { draws : int; hits : int; misses : int; words : int }

let stats { memo = m; _ } =
  { draws = m.draws; hits = m.hits; misses = m.misses; words = m.words }

let count_draw t = t.memo.draws <- t.memo.draws + 1

type phase = {
  s : int array;
  start : int;
  in_s : bool array;
  q : Mat.t;
  powers : Mat.t array Lazy.t;
}

(* The pure per-S computation of a later phase. *)
let compute t ~s ~in_s =
  let g = t.graph and m = t.memo in
  let q =
    match m.schur with
    | Exact_solve -> Shortcut.exact g ~in_s
    | Powering _ -> Shortcut.approx ?bits:m.bits g ~in_s ~k:(schur_k t)
  in
  (* Clamp numeric dust and renormalize, so the walk receives a proper
     stochastic matrix. *)
  let powers =
    lazy
      (let p = Mat.sanitize_stochastic (Schur.transition_via_shortcut g q ~s) in
       let trans = if m.lazy_walk then Mat.half_lazy p else p in
       Matmul.power_table_pure ?bits:m.bits trans ~levels:m.levels)
  in
  { e_q = q; e_powers = powers }

let phase t ~visited ~current =
  let n = Array.length visited and m = t.memo in
  let in_s = Array.init n (fun v -> v = current || not visited.(v)) in
  let s = List.filter (Array.get in_s) (List.init n Fun.id) in
  let start = List.length (List.filter (fun v -> v < current) s) in
  let s = Array.of_list s in
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
        (* Q is n x n; the power table's [levels + 1] matrices, and the
           transition it squares while it is built, are |S| x |S|. An upper
           bound: a table that stopped squaring aliases its later levels
           (Mat.squarings), but counting only distinct matrices would
           retain more entries. *)
        let k = Array.length s in
        let words = (n * n) + ((m.levels + 2) * k * k) in
        if m.words + words <= memo_budget then begin
          Hashtbl.add m.table key e;
          m.words <- m.words + words
        end;
        e
  in
  { s; start; in_s; q = e.e_q; powers = e.e_powers }

let first_visit t ph prng ~prev v =
  let weights =
    Shortcut.first_visit_weights t.graph ph.q ~in_s:ph.in_s ~prev ~target:v
  in
  (fst weights.(Dist.sample_weights (Array.map snd weights) prng), weights)
