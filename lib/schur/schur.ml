module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve

let members ~n ~s =
  let in_s = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Schur.members: vertex out of range";
      if in_s.(v) then invalid_arg "Schur.members: duplicate vertex";
      in_s.(v) <- true)
    s;
  in_s

let graph_exact g ~s =
  if Array.length s = 0 then invalid_arg "Schur.graph_exact: empty S";
  ignore (members ~n:(Graph.n g) ~s);
  Cc_obs.Trace.with_span "schur.exact"
    ~args:
      [
        ("n", string_of_int (Graph.n g));
        ("keep", string_of_int (Array.length s));
      ]
  @@ fun () ->
  let l = Graph.laplacian g in
  let schur_l = Solve.schur_complement l ~keep:s in
  (* The Schur complement of a Laplacian is a Laplacian (Fact 2.3.6 in Kyng);
     clamp numeric dust so tiny positive off-diagonals do not create edges. *)
  Graph.of_laplacian ~tol:1e-9 schur_l

let transition_exact g ~s = Graph.transition_matrix (graph_exact g ~s)

let transition_via_shortcut g q ~s =
  let n = Graph.n g in
  let in_s = members ~n ~s in
  let k = Array.length s in
  (* R[u,v] = w(u,v)/w_S(u) for edges u~v with v in S (Corollary 4,
     generalized to weights; = 1/deg_S(u) when unweighted). Only (QR)[S,S]
     is read, so R keeps just the columns of S, column j standing for s.(j),
     and only the rows of S of Q are multiplied: each entry is the same
     ascending-k sum over the same nonzero Q[u,k] as in the full product.
     Row u is filled from u's adjacency and its total S-weight w_S(u); a row
     with no S-weight is a self-loop, which lands in a kept column only when
     u is in S, and every other entry stays 0. *)
  let col = Array.make n (-1) in
  Array.iteri (fun j v -> col.(v) <- j) s;
  let ws = Array.init n (Shortcut.s_weight g ~in_s) in
  let r = Mat.create ~rows:n ~cols:k 0.0 in
  for u = 0 to n - 1 do
    if ws.(u) = 0.0 then (if in_s.(u) then Mat.set r u col.(u) 1.0)
    else
      Array.iter
        (fun (v, w) -> if in_s.(v) then Mat.set r u col.(v) (w /. ws.(u)))
        (Graph.neighbors g u)
  done;
  let all = Array.init (Mat.cols q) Fun.id in
  let m = Mat.mul (Mat.submatrix q ~row_idx:s ~col_idx:all) r in
  Mat.init ~rows:k ~cols:k (fun i j ->
      if i = j then 0.0
      else
        let denom = 1.0 -. Mat.get m i i in
        if denom <= 0.0 then 0.0 else Mat.get m i j /. denom)

let approx ?bits g ~s ~k =
  let in_s = members ~n:(Graph.n g) ~s in
  Cc_obs.Trace.with_span "schur.approx"
    ~args:
      [
        ("n", string_of_int (Graph.n g));
        ("keep", string_of_int (Array.length s));
        ("k", string_of_int k);
      ]
  @@ fun () ->
  transition_via_shortcut g (Shortcut.approx ?bits g ~in_s ~k) ~s
