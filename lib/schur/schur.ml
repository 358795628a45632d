module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat

(* Typed, so that the Schur weights' loops load and store floats unboxed. *)
external unsafe_get : float array -> int -> float = "%array_unsafe_get"
external unsafe_set : float array -> int -> float -> unit = "%array_unsafe_set"

let members ~n ~s =
  let in_s = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Schur.members: vertex out of range";
      if in_s.(v) then invalid_arg "Schur.members: duplicate vertex";
      in_s.(v) <- true)
    s;
  in_s

(* W_S = W_SS + W_SU·Y, |s| x |s| and row-major in s order, from one
   elimination of U = V \ S in ascending order, returned with U's vertices
   and Y, whose entry Y[u, j] is the probability that a walk from u enters
   S first at s.(j). Row i adds each edge of s.(i) into S, and each edge
   into U times that vertex's row of Y: every term is nonnegative, so
   nothing cancels.
   The diagonal, a self-loop of the Schur graph, is left 0. Every index
   below is in range: adjacency holds vertices of G, and idx maps them
   into S or U as [in_s] says. *)
let schur_weights g ~s ~in_s =
  let n = Graph.n g and k = Array.length s in
  let u_of, f = Graph.eliminate g ~keep:s in
  let y = Cc_linalg.Gth.harmonic f in
  let idx = Array.make n 0 in
  Array.iteri (fun i v -> idx.(v) <- i) s;
  Array.iteri (fun a u -> idx.(u) <- a) u_of;
  let wm = Mat.create ~rows:k ~cols:k 0.0 in
  let ws = Mat.data wm in
  for i = 0 to k - 1 do
    let row = i * k in
    let adj = Graph.neighbors g (Array.unsafe_get s i) in
    for e = 0 to Array.length adj - 1 do
      let x, w = Array.unsafe_get adj e in
      let ix = Array.unsafe_get idx x in
      if Array.unsafe_get in_s x then
        unsafe_set ws (row + ix) (unsafe_get ws (row + ix) +. w)
      else
        let yrow = ix * k in
        for j = 0 to k - 1 do
          unsafe_set ws (row + j)
            (unsafe_get ws (row + j) +. (w *. unsafe_get y (yrow + j)))
        done
    done;
    unsafe_set ws (row + i) 0.0
  done;
  (u_of, y, wm)

(* The random walk on W_S: each row divided by its off-diagonal sum (the
   diagonal is 0), and a row with no Schur weight a self-loop, as
   [Graph.transition_matrix] makes an isolated vertex's row. The first
   S-visit after time 0 has law (W_SS + W_SU Y)/d(s.(i)), and the degree
   cancels. *)
let walk_of_weights wm =
  let k = Mat.rows wm and td = Mat.data wm in
  for i = 0 to k - 1 do
    let row = i * k in
    let total = ref 0.0 in
    for j = row to row + k - 1 do
      total := !total +. unsafe_get td j
    done;
    let total = !total in
    if total > 0.0 then
      for j = row to row + k - 1 do
        unsafe_set td j (unsafe_get td j /. total)
      done
    else unsafe_set td (row + i) 1.0
  done

let transition_exact g ~s =
  let k = Array.length s in
  if k = 0 then invalid_arg "Schur.transition_exact: empty S";
  let in_s = members ~n:(Graph.n g) ~s in
  Cc_obs.Trace.with_span "schur.exact"
    ~args:[ ("n", string_of_int (Graph.n g)); ("keep", string_of_int k) ]
  @@ fun () ->
  match schur_weights g ~s ~in_s with
  | _, _, wm ->
      walk_of_weights wm;
      wm
  | exception Failure _ ->
      invalid_arg "Schur.transition_exact: a component of G has no vertex in S"

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

type phase = { q_rows : Mat.t; transition : Mat.t }

let phase_exact g ~s =
  let n = Graph.n g and k = Array.length s in
  if k = 0 then invalid_arg "Schur.phase_exact: empty S";
  let in_s = members ~n ~s in
  Cc_obs.Trace.with_span "shortcut.exact"
    ~args:[ ("n", string_of_int n) ]
  @@ fun () ->
  let u_of, y, transition = schur_weights g ~s ~in_s in
  let ws = Array.init n (Shortcut.s_weight g ~in_s) in
  let q_rows = Shortcut.rows_of_s g ~s ~ws ~u_of y in
  walk_of_weights transition;
  { q_rows; transition }

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
