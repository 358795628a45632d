module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Mat = Cc_linalg.Mat
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut
module Topdown = Cc_walks.Topdown

type result = { tree : Tree.t; phases : int; walk_total : int }

let next_pow2 x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

(* ------------------------------------------------------------------ *)
(* Prepared plans: mirrors Sampler's prepare/draw split for the
   sequential reference. Everything here is pure compute, so memo hits
   and misses are indistinguishable to the caller except in time — the
   prng stream is untouched by caching. *)

type phase_entry = {
  e_q : Mat.t;
  e_trans : Mat.t;
  e_powers : Mat.t array option ref; (* power table, filled on first walk *)
}

type plan = {
  plan_graph : Graph.t;
  plan_rho : int;
  plan_target_len : int;
  plan_lazy_walk : bool;
  plan_trans1 : Mat.t;
  plan_powers1 : Mat.t array;
  plan_memo : (string, phase_entry) Hashtbl.t;
  mutable plan_memo_words : int;
  mutable plan_draws : int;
}

(* Bounded like Sampler's memo, by the words its entries hold (Q, the
   transition and its power table): past the budget a phase recomputes
   instead of retaining, and nothing is evicted. *)
let memo_budget = 1 lsl 18

let prepare ?rho ?target_len ?(lazy_walk = true) g =
  if not (Graph.is_connected g) then
    invalid_arg "Sequential.prepare: graph must be connected";
  let n = Graph.n g in
  let rho =
    match rho with
    | Some r -> max 2 (min r n)
    | None -> max 2 (int_of_float (Float.ceil (sqrt (Float.of_int n))))
  in
  let target_len =
    match target_len with
    | Some l -> next_pow2 (max 2 l)
    | None ->
        let lg = max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int n)))) in
        next_pow2 (max 2 (n * n * n * lg))
  in
  let trans1 = Graph.transition_matrix g in
  let trans1 = if lazy_walk then Mat.half_lazy trans1 else trans1 in
  let powers1 =
    Mat.power_table trans1 ~max_exp:(Topdown.levels_for ~len:target_len)
  in
  {
    plan_graph = g;
    plan_rho = rho;
    plan_target_len = target_len;
    plan_lazy_walk = lazy_walk;
    plan_trans1 = trans1;
    plan_powers1 = powers1;
    plan_memo = Hashtbl.create 32;
    plan_memo_words = 0;
    plan_draws = 0;
  }

let memo_key s =
  let buf = Buffer.create (4 * Array.length s) in
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',')
    s;
  Buffer.contents buf

let phase_entry plan ~s =
  let key = memo_key s in
  match Hashtbl.find_opt plan.plan_memo key with
  | Some e -> e
  | None ->
      let g = plan.plan_graph in
      let in_s = Schur.members ~n:(Graph.n g) ~s in
      let q = Shortcut.exact g ~in_s in
      let trans =
        if Array.length s = 2 then q (* unused: the phase is a forced step *)
        else begin
          let t =
            Mat.sanitize_stochastic (Schur.transition_via_shortcut g q ~s)
          in
          if plan.plan_lazy_walk then Mat.half_lazy t else t
        end
      in
      let e = { e_q = q; e_trans = trans; e_powers = ref None } in
      let n = Graph.n g and m = Array.length s in
      let levels = Topdown.levels_for ~len:plan.plan_target_len in
      (* An upper bound, as in Sampler: a stopped power table aliases its
         later levels. *)
      let words = (n * n) + ((levels + 2) * m * m) in
      if plan.plan_memo_words + words <= memo_budget then begin
        Hashtbl.add plan.plan_memo key e;
        plan.plan_memo_words <- plan.plan_memo_words + words
      end;
      e

let draw plan prng =
  let g = plan.plan_graph in
  let n = Graph.n g in
  let rho = plan.plan_rho in
  let target_len = plan.plan_target_len in
  plan.plan_draws <- plan.plan_draws + 1;
  let visited = Array.make n false in
  visited.(0) <- true;
  let remaining = ref (n - 1) in
  let tree_edges = ref [] in
  let current = ref 0 in
  let phases = ref 0 in
  let walk_total = ref 0 in
  let claim u v =
    visited.(v) <- true;
    decr remaining;
    tree_edges := (u, v) :: !tree_edges
  in
  while !remaining > 0 do
    incr phases;
    if !phases = 1 then begin
      let walk =
        Topdown.sample_truncated_matrix prng ~trans:plan.plan_trans1 ~start:0
          ~target_len ~rho:(min rho n) ~powers:plan.plan_powers1 ()
      in
      walk_total := !walk_total + Array.length walk - 1;
      Array.iteri
        (fun idx v -> if idx > 0 && not visited.(v) then claim walk.(idx - 1) v)
        walk;
      current := walk.(Array.length walk - 1)
    end
    else begin
      let s =
        Array.of_list
          (List.filter
             (fun v -> v = !current || not visited.(v))
             (List.init n (fun v -> v)))
      in
      let in_s = Schur.members ~n ~s in
      let entry = phase_entry plan ~s in
      let q = entry.e_q in
      let claim_via_shortcut prev v =
        let weights = Shortcut.first_visit_weights g q ~in_s ~prev ~target:v in
        let idx = Dist.sample_weights (Array.map snd weights) prng in
        claim (fst weights.(idx)) v
      in
      if Array.length s = 2 then begin
        let v = if s.(0) = !current then s.(1) else s.(0) in
        claim_via_shortcut !current v;
        walk_total := !walk_total + 1;
        current := v
      end
      else begin
        let trans = entry.e_trans in
        let powers =
          match !(entry.e_powers) with
          | Some p -> p
          | None ->
              let p =
                Mat.power_table trans
                  ~max_exp:(Topdown.levels_for ~len:target_len)
              in
              entry.e_powers := Some p;
              p
        in
        let local_of = Hashtbl.create (Array.length s) in
        Array.iteri (fun i v -> Hashtbl.add local_of v i) s;
        let walk_local =
          Topdown.sample_truncated_matrix prng ~trans
            ~start:(Hashtbl.find local_of !current)
            ~target_len
            ~rho:(min rho (Array.length s))
            ~powers ()
        in
        walk_total := !walk_total + Array.length walk_local - 1;
        let walk = Array.map (fun i -> s.(i)) walk_local in
        Array.iteri
          (fun idx v ->
            if idx > 0 && not visited.(v) then claim_via_shortcut walk.(idx - 1) v)
          walk;
        current := walk.(Array.length walk - 1)
      end
    end
  done;
  let tree = Tree.of_edges ~n !tree_edges in
  assert (Tree.is_spanning_tree g tree);
  { tree; phases = !phases; walk_total = !walk_total }

let sample ?rho ?target_len ?(lazy_walk = true) g prng =
  if not (Graph.is_connected g) then
    invalid_arg "Sequential.sample: graph must be connected";
  draw (prepare ?rho ?target_len ~lazy_walk g) prng

let sample_tree g prng = (sample g prng).tree
