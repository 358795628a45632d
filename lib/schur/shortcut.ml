module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Gth = Cc_linalg.Gth
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

(* Q's rows of S from Y, the harmonic measures of U = V \ S in ascending
   order ([u_of]). A walk from s.(i) is at a vertex of S only at time 0, so
   Q[s.(i), v] = delta(s.(i), v) w_S(v)/d(v) for v in S, written exactly;
   for u in U, reversibility (d(x) P[x, y] = w(x, y)) turns
   (P_SU (I - P_UU)^{-1})[i, u] w_S(u)/d(u) into Y[u, i] w_S(u)/d(s.(i)).
   An isolated s.(i) keeps its self-loop, Q[s.(i), s.(i)] = 1. *)
let rows_of_s g ~s ~ws ~u_of y =
  let n = Graph.n g and k = Array.length s in
  let q = Mat.create ~rows:k ~cols:n 0.0 in
  let qd = Mat.data q in
  for i = 0 to k - 1 do
    let v = s.(i) in
    let d = Graph.weighted_degree g v and row = i * n in
    if d = 0.0 then qd.(row + v) <- 1.0
    else begin
      qd.(row + v) <- ws.(v) /. d;
      Array.iteri
        (fun a u -> qd.(row + u) <- y.((a * k) + i) *. ws.(u) /. d)
        u_of
    end
  done;
  q

(* In the order (U, S), I - T is [[I - P_UU, 0], [-P_SU, I]], so Q's rows of
   U are (I - P_UU)^{-1} diag(s_mass) = L_UU^{-1} diag(w_S) on U and 0 on
   S, and its rows of S are [rows_of_s]'s. *)
let exact g ~in_s =
  check_s g ~in_s;
  Cc_obs.Trace.with_span "shortcut.exact"
    ~args:[ ("n", string_of_int (Graph.n g)) ]
  @@ fun () ->
  let n = Graph.n g in
  let s = Array.of_list (List.filter (fun v -> in_s.(v)) (List.init n Fun.id)) in
  let u_of, f = Graph.eliminate g ~keep:s in
  let nu = Array.length u_of in
  let ws = Array.init n (s_weight g ~in_s) in
  let x = Gth.inverse f in
  let q = Mat.create ~rows:n ~cols:n 0.0 in
  let qd = Mat.data q in
  Array.iteri
    (fun r u ->
      Array.iteri
        (fun c v -> qd.((u * n) + v) <- x.((r * nu) + c) *. ws.(v))
        u_of)
    u_of;
  let rows = Mat.data (rows_of_s g ~s ~ws ~u_of (Gth.harmonic f)) in
  Array.iteri (fun i v -> Array.blit rows (i * n) qd (v * n) n) s;
  q

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
  let powers, _ =
    Mat.squarings ~exact:(bits <> None)
      ~square:(fun m -> maybe_round (Mat.mul m m))
      (maybe_round r) ~levels
  in
  let rk = powers.(levels) in
  Mat.init ~rows:n ~cols:n (fun u v -> Mat.get rk u (n + v))

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
