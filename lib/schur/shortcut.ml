module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve
module Fixed = Cc_linalg.Fixed

let check_s g ~in_s =
  let n = Graph.n g in
  if Array.length in_s <> n then
    invalid_arg "Shortcut: |in_s| must equal the vertex count";
  if not (Array.exists (fun b -> b) in_s) then
    invalid_arg "Shortcut: S must be nonempty"

(* Mass from w directly into S: sum_{x in S} P[w,x]. *)
let s_mass p ~in_s w =
  let n = Mat.cols p in
  let acc = ref 0.0 in
  for x = 0 to n - 1 do
    if in_s.(x) then acc := !acc +. Mat.get p w x
  done;
  !acc

let exact g ~in_s =
  check_s g ~in_s;
  Cc_obs.Trace.with_span "shortcut.exact"
    ~args:[ ("n", string_of_int (Graph.n g)) ]
  @@ fun () ->
  let n = Graph.n g in
  let p = Graph.transition_matrix g in
  (* I - T, with T the transient chain: it moves only to vertices outside
     S. Built in one pass, each entry as I[w,x] -. T[w,x]. *)
  let i_minus_t =
    Mat.init ~rows:n ~cols:n (fun w x ->
        (if w = x then 1.0 else 0.0) -. if in_s.(x) then 0.0 else Mat.get p w x)
  in
  (* Q = (I - T)^{-1} diag(s_mass). Hoist the per-column S-mass out of the
     n^2 init (it only depends on the column): one pass over the machines
     instead of an O(n) rescan per entry. *)
  let fundamental = Solve.inverse i_minus_t in
  let sm = Array.init n (s_mass p ~in_s) in
  Mat.init ~rows:n ~cols:n (fun u v -> Mat.get fundamental u v *. sm.(v))

(* The 2n x 2n auxiliary chain of Corollary 3: states 0..n-1 are L-copies
   (walking, not yet entered S), states n..2n-1 are absorbing R-copies. *)
let auxiliary_chain g ~in_s =
  let n = Graph.n g in
  let p = Graph.transition_matrix g in
  Mat.init ~rows:(2 * n) ~cols:(2 * n) (fun a b ->
      if a >= n then if a = b then 1.0 else 0.0
      else if b < n then if in_s.(b) then 0.0 else Mat.get p a b
      else if b = a + n then s_mass p ~in_s a
      else 0.0)

let approx ?bits g ~in_s ~k =
  check_s g ~in_s;
  if k <= 0 || k land (k - 1) <> 0 then
    invalid_arg "Shortcut.approx: k must be a positive power of two";
  Cc_obs.Trace.with_span "shortcut.approx"
    ~args:[ ("n", string_of_int (Graph.n g)); ("k", string_of_int k) ]
  @@ fun () ->
  let n = Graph.n g in
  let r = auxiliary_chain g ~in_s in
  let maybe_round m = match bits with None -> m | Some b -> Fixed.round_mat ~bits:b m in
  let rec log2 k = if k = 1 then 0 else 1 + log2 (k / 2) in
  let levels = log2 k in
  (* R^k by log2 k squarings. *)
  let powers =
    Mat.squarings ~exact:(bits <> None)
      ~square:(fun m -> maybe_round (Mat.mul m m))
      (maybe_round r) ~levels
  in
  let rk = powers.(levels) in
  Mat.init ~rows:n ~cols:n (fun u v -> Mat.get rk u (n + v))

(* Total edge weight from u into S (= deg_S(u) on unweighted graphs): the
   left fold over u's adjacency, as a plain loop so that no sum is boxed. *)
let s_weight g ~in_s u =
  let adj = Graph.neighbors g u in
  let acc = ref 0.0 in
  for e = 0 to Array.length adj - 1 do
    let v, w = Array.unsafe_get adj e in
    if in_s.(v) then acc := !acc +. w
  done;
  !acc

let first_visit_weights g q ~ws ~row ~target =
  if Array.length ws <> Graph.n g then
    invalid_arg
      "Shortcut.first_visit_weights: |ws| must equal the vertex count";
  Array.map
    (fun (u, w_uv) ->
      let wu = ws.(u) in
      let w = if wu = 0.0 then 0.0 else Mat.get q row u *. w_uv /. wu in
      (u, w))
    (Graph.neighbors g target)
