module Mat = Cc_linalg.Mat

(* Symmetrized walk matrix N = D^{-1/2} A D^{-1/2}: same spectrum as P,
   orthogonal eigenvectors, top eigenvector sqrt(d_i). *)
let symmetrized g =
  let n = Graph.n g in
  Mat.init ~rows:n ~cols:n (fun i j ->
      let w = Graph.edge_weight g i j in
      if w = 0.0 then 0.0
      else w /. sqrt (Graph.weighted_degree g i *. Graph.weighted_degree g j))

let normalize v =
  let norm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v) in
  if norm = 0.0 then v else Array.map (fun x -> x /. norm) v

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

(* Power iteration on [m], deflating the given orthonormal directions; the
   Rayleigh quotient can be negative, so iterate on a shifted matrix
   (m + 2I, eigenvalues in [1,3]) and shift back. The start vector is
   drawn from a fixed seed, so the result is deterministic. *)
let extreme_eigenvalue m ~deflate ~iters =
  let n = Mat.rows m in
  let prng = Cc_util.Prng.create ~seed:1 in
  let v = ref (normalize (Array.init n (fun _ -> Cc_util.Prng.float prng 2.0 -. 1.0))) in
  let project x =
    List.iter
      (fun d ->
        let c = dot x d in
        Array.iteri (fun i di -> x.(i) <- x.(i) -. (c *. di)) d)
      deflate;
    x
  in
  v := normalize (project !v);
  for _ = 1 to iters do
    let shifted = Mat.mul_vec m !v in
    Array.iteri (fun i x -> shifted.(i) <- x +. (2.0 *. !v.(i))) shifted;
    v := normalize (project shifted)
  done;
  dot !v (Mat.mul_vec m !v) /. dot !v !v

let stationary_direction g =
  normalize (Array.init (Graph.n g) (fun i -> sqrt (Graph.weighted_degree g i)))

let second_eigenvalue ?(iters = 10_000) g =
  if not (Graph.is_connected g) then invalid_arg "Spectral: disconnected graph";
  let m = symmetrized g in
  extreme_eigenvalue m ~deflate:[ stationary_direction g ] ~iters

let gap ?iters g =
  let l2 = second_eigenvalue ?iters g in
  (1.0 -. l2) /. 2.0
