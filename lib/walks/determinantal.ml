module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Mat = Cc_linalg.Mat

let marginals g =
  let r = Graph.edge_resistances g in
  List.mapi (fun i (u, v, w) -> ((u, v), w *. r.(i))) (Graph.edges g)

(* Union-find over original vertices; supernodes are class representatives. *)
type uf = { parent : int array }

let uf_create n = { parent = Array.init n (fun i -> i) }

let rec uf_find uf i =
  if uf.parent.(i) = i then i
  else begin
    uf.parent.(i) <- uf_find uf uf.parent.(i);
    uf.parent.(i)
  end

let uf_union uf i j = uf.parent.(uf_find uf i) <- uf_find uf j

(* An offer at least [1 - bridge_eps] (the audit's bridge threshold) is a
   bridge of the conditioned graph and is offered as exactly 1.0. *)
let bridge_eps = 1e-9
let rebuild_below = 1e-2

(* Edge t's coin is conditioned on the fate of edges 0..t-1: contract the
   kept ones, delete the others. X is the grounded inverse of that
   conditioned graph (Graph.grounded_inverse at n - 1). With
   y = X (e_u - e_v) and r = y_u - y_v, edge t's probability is w·r;
   keeping it sets X -= y y^T / r (an infinite conductance on (u, v)), and
   rejecting it sets X += (w / (1 - p)) y y^T (Sherman–Morrison for -w).
   That downdate multiplies X's rounding by 1 / (1 - p), so below
   [rebuild_below] X is recomputed from the kept and undecided edges
   instead, with the kept ones contracted again. Every weight merged by
   contraction is a sum of edge weights, so a finite total weight is what
   keeps them finite. *)
let chain g ~coin =
  if not (Float.is_finite (Graph.total_weight g)) then
    invalid_arg "Graph.of_edges: weight must be positive and finite";
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let ground = n - 1 in
  let uf = uf_create n in
  let x = ref (Graph.grounded_inverse g ~ground) in
  let y = Array.make n 0.0 in
  let kept = ref [] in
  let contract (u, v, _) =
    Mat.col_diff_into !x ~u ~v y;
    Mat.add_outer_in_place !x (-1.0 /. (y.(u) -. y.(v))) y
  in
  for t = 0 to m - 1 do
    let u, v, w = edges.(t) in
    (* Edges whose endpoints are already joined have probability 0. *)
    if uf_find uf u <> uf_find uf v then begin
      Mat.col_diff_into !x ~u ~v y;
      let wr = w *. (y.(u) -. y.(v)) in
      let p = if wr >= 1.0 -. bridge_eps then 1.0 else wr in
      if coin p then begin
        contract edges.(t);
        kept := edges.(t) :: !kept;
        uf_union uf u v
      end
      else if p = 1.0 then
        invalid_arg "Determinantal.chain_rule: the coin rejected a bridge"
      else if 1.0 -. p < rebuild_below then begin
        let kept_first = List.rev !kept in
        let undecided = Array.to_list (Array.sub edges (t + 1) (m - t - 1)) in
        x :=
          Graph.grounded_inverse ~ground
            (Graph.of_edges ~n (kept_first @ undecided));
        List.iter contract kept_first
      end
      else Mat.add_outer_in_place !x (w /. (1.0 -. p)) y
    end
  done;
  Tree.of_edges ~n (List.map (fun (u, v, _) -> (u, v)) !kept)

let chain_rule g ~coin =
  if not (Graph.is_connected g) then
    invalid_arg "Determinantal.chain_rule: disconnected";
  chain g ~coin

let sample_tree g prng =
  if not (Graph.is_connected g) then
    invalid_arg "Determinantal.sample_tree: disconnected";
  chain g ~coin:(fun p -> Prng.float prng 1.0 < p)

let empirical_marginals ~trials sampler g =
  if trials <= 0 then invalid_arg "Determinantal.empirical_marginals";
  let counts = Hashtbl.create 32 in
  List.iter (fun (u, v, _) -> Hashtbl.add counts (u, v) 0) (Graph.edges g);
  for _ = 1 to trials do
    let t = sampler g in
    List.iter
      (fun (u, v) ->
        Hashtbl.replace counts (u, v) (1 + Hashtbl.find counts (u, v)))
      (Tree.edges t)
  done;
  List.map
    (fun (u, v, _) ->
      ((u, v), float_of_int (Hashtbl.find counts (u, v)) /. float_of_int trials))
    (Graph.edges g)

let max_marginal_gap g ~trials sampler =
  let exact = marginals g in
  let empirical = empirical_marginals ~trials sampler g in
  List.fold_left2
    (fun acc (_, p) (_, q) -> Float.max acc (Float.abs (p -. q)))
    0.0 exact empirical
