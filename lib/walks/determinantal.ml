module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve

let leverage g u v =
  let w = Graph.edge_weight g u v in
  if w <= 0.0 then invalid_arg "Determinantal.leverage: no such edge";
  w *. Graph.effective_resistance g u v

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

(* Edge t's coin is conditioned on the fate of edges 0..t-1: contract the
   kept ones, delete the others. What is left has the classes of the kept
   forest as vertices and edges t..m-1 as edges, with parallel weights
   merged, and edge t's conditional probability is w times its effective
   resistance there. Each step builds that graph's Laplacian, grounded at
   v's class, straight into a minor, with the floats that the contracted
   [Graph.t] and [Graph.effective_resistance] would give it:
   - classes are numbered by first appearance over edges t.., u's class
     before v's;
   - a pair of classes weighs [w +. acc] over its edges in order, from 0.0,
     and a weight that overflows is refused as [Graph.of_edges] refuses it;
   - a class's diagonal is 0.0 plus its merged weights by ascending class;
   - off the diagonal an edge is [-.w] and a non-edge [-0.0]. *)
let chain g ~coin =
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let uf = uf_create n in
  let cls = Array.make n (-1) in (* class id of a representative, or -1 *)
  let reps = Array.make n 0 in (* representative of each class id *)
  let merged = Array.make (n * n) 0.0 in (* classes a < b at a * n + b *)
  let pair a b = if a < b then (a * n) + b else (b * n) + a in
  let chosen = ref [] in
  for t = 0 to m - 1 do
    let u, v, w = edges.(t) in
    (* Edges whose endpoints are already joined have probability 0. *)
    if uf_find uf u <> uf_find uf v then begin
      let classes = ref 0 in
      let id x =
        let r = uf_find uf x in
        if cls.(r) < 0 then begin
          cls.(r) <- !classes;
          reps.(!classes) <- r;
          incr classes
        end;
        cls.(r)
      in
      for j = t to m - 1 do
        let a, b, wj = edges.(j) in
        let ca = id a in
        let cb = id b in
        if ca <> cb then begin
          let k = pair ca cb in
          let acc = wj +. merged.(k) in
          if not (Float.is_finite acc) then
            invalid_arg "Graph.of_edges: weight must be positive and finite";
          merged.(k) <- acc
        end
      done;
      let size = !classes and cu = id u and cv = id v in
      let pos c = if c < cv then c else c - 1 in
      let minor = Mat.create ~rows:(size - 1) ~cols:(size - 1) (-0.0) in
      for a = 0 to size - 1 do
        if a <> cv then begin
          let d = ref 0.0 in
          for b = 0 to size - 1 do
            let wab = if b = a then 0.0 else merged.(pair a b) in
            if wab > 0.0 then d := !d +. wab
          done;
          Mat.set minor (pos a) (pos a) !d
        end
      done;
      (* Each pair's first edge places its weight and clears it, so
         [merged] is all 0.0 again for the next step. *)
      for j = t to m - 1 do
        let a, b, _ = edges.(j) in
        let ca = id a and cb = id b in
        let k = pair ca cb in
        let wab = if ca = cb then 0.0 else merged.(k) in
        if wab > 0.0 then begin
          if ca <> cv && cb <> cv then begin
            Mat.set minor (pos ca) (pos cb) (-.wab);
            Mat.set minor (pos cb) (pos ca) (-.wab)
          end;
          merged.(k) <- 0.0
        end
      done;
      for c = 0 to size - 1 do
        cls.(reps.(c)) <- -1
      done;
      let e = Array.make (size - 1) 0.0 in
      e.(pos cu) <- 1.0;
      let p = w *. (Solve.solve minor e).(pos cu) in
      if coin p then begin
        chosen := (u, v) :: !chosen;
        uf_union uf u v
      end
    end
  done;
  Tree.of_edges ~n !chosen

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
