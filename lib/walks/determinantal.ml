module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng

let leverage g u v =
  let w = Graph.edge_weight g u v in
  if w <= 0.0 then invalid_arg "Determinantal.leverage: no such edge";
  w *. Graph.effective_resistance g u v

let marginals g =
  List.map (fun (u, v, _) -> ((u, v), leverage g u v)) (Graph.edges g)

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

let sample_tree g prng =
  if not (Graph.is_connected g) then
    invalid_arg "Determinantal.sample_tree: disconnected";
  let n = Graph.n g in
  let uf = uf_create n in
  (* Remaining original edges, as a mutable list; the contracted graph is
     rebuilt on supernodes for each conditional (exactness over speed). *)
  let remaining = ref (Graph.edges g) in
  let chosen = ref [] in
  let contracted_graph () =
    (* Relabel supernodes compactly. *)
    let reps = Hashtbl.create 16 in
    let fresh = ref 0 in
    let id r =
      match Hashtbl.find_opt reps r with
      | Some i -> i
      | None ->
          let i = !fresh in
          incr fresh;
          Hashtbl.add reps r i;
          i
    in
    let weight_acc = Hashtbl.create 32 in
    List.iter
      (fun (u, v, w) ->
        let ru = id (uf_find uf u) and rv = id (uf_find uf v) in
        if ru <> rv then begin
          let key = if ru < rv then (ru, rv) else (rv, ru) in
          Hashtbl.replace weight_acc key
            (w +. Option.value ~default:0.0 (Hashtbl.find_opt weight_acc key))
        end)
      !remaining;
    let edges =
      Hashtbl.fold (fun (a, b) w acc -> (a, b, w) :: acc) weight_acc []
    in
    let size = max 1 !fresh in
    ( Graph.of_edges ~n:size edges,
      fun orig -> id (uf_find uf orig) )
  in
  List.iter
    (fun (u, v, w) ->
      if uf_find uf u = uf_find uf v then
        (* Both endpoints already connected by chosen edges: conditional
           inclusion probability is 0; just delete. *)
        remaining := List.filter (fun e -> e <> (u, v, w)) !remaining
      else begin
        let cg, translate = contracted_graph () in
        let p = w *. Graph.effective_resistance cg (translate u) (translate v) in
        remaining := List.filter (fun e -> e <> (u, v, w)) !remaining;
        if Prng.float prng 1.0 < p then begin
          chosen := (u, v) :: !chosen;
          uf_union uf u v
        end
      end)
    (Graph.edges g);
  Tree.of_edges ~n !chosen

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
