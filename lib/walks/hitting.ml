module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat

(* (I - P_UU) h = 1 for U = V \ {v} is L_UU h = d_U, which the elimination
   solves without a subtraction. *)
let to_target g v =
  let n = Graph.n g in
  if v < 0 || v >= n then invalid_arg "Hitting.to_target: bad vertex";
  if not (Graph.is_connected g) then invalid_arg "Hitting.to_target: disconnected";
  let u_of, f = Graph.eliminate g ~keep:[| v |] in
  let h = Cc_linalg.Gth.solve f (Array.map (Graph.weighted_degree g) u_of) in
  let out = Array.make n 0.0 in
  Array.iteri (fun r u -> out.(u) <- h.(r)) u_of;
  out

let matrix g =
  let n = Graph.n g in
  let out = Mat.create ~rows:n ~cols:n 0.0 in
  for v = 0 to n - 1 do
    let h = to_target g v in
    for u = 0 to n - 1 do
      Mat.set out u v h.(u)
    done
  done;
  out

let mean_hitting_time g =
  let n = Graph.n g in
  let total = 2.0 *. Graph.total_weight g in
  let pi = Array.init n (fun i -> Graph.weighted_degree g i /. total) in
  let h = matrix g in
  let acc = ref 0.0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      acc := !acc +. (pi.(u) *. pi.(v) *. Mat.get h u v)
    done
  done;
  !acc
