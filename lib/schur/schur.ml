module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve

(* Typed, so that the phase state's loops load and store floats unboxed, as
   Solve's kernels do. *)
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

type phase = { q_rows : Mat.t; transition : Mat.t }

let phase_exact g ~s =
  let n = Graph.n g and k = Array.length s in
  if k = 0 then invalid_arg "Schur.phase_exact: empty S";
  let in_s = members ~n ~s in
  Cc_obs.Trace.with_span "shortcut.exact"
    ~args:[ ("n", string_of_int n) ]
  @@ fun () ->
  (* U = V \ S in ascending order, so the state is a function of S alone;
     idx.(v) is v's index in s for v in S and in U otherwise. *)
  let nu = n - k in
  let idx = Array.make n 0 and u_of = Array.make nu 0 in
  Array.iteri (fun i v -> idx.(v) <- i) s;
  let next = ref 0 in
  for v = 0 to n - 1 do
    if not in_s.(v) then begin
      idx.(v) <- !next;
      u_of.(!next) <- v;
      incr next
    end
  done;
  let deg = Array.init n (Graph.weighted_degree g) in
  let ws = Array.init n (Shortcut.s_weight g ~in_s) in
  (* Y = (I - P_UU)^{-1} P_US, |U| x |S| and row-major: Y[u, j] is the
     probability that a walk from u enters S first at s.(j). Both blocks
     are filled from U's adjacency in transition units, P[u, x] = w/d(u),
     exactly as Graph.transition_matrix writes them. Every index below is
     in range: adjacency holds vertices of G, and idx maps them into S or
     U as [in_s] says. *)
  let y =
    if nu = 0 then [||]
    else begin
      let lhs = Mat.create ~rows:nu ~cols:nu 0.0
      and rhs = Mat.create ~rows:nu ~cols:k 0.0 in
      let ld = Mat.data lhs and rd = Mat.data rhs in
      for a = 0 to nu - 1 do
        let u = Array.unsafe_get u_of a in
        let d = unsafe_get deg u in
        (* An isolated u keeps P[u, u] = 1, a zero row: singular, as in
           Shortcut.exact. *)
        if d <> 0.0 then begin
          unsafe_set ld ((a * nu) + a) 1.0;
          let adj = Graph.neighbors g u in
          for e = 0 to Array.length adj - 1 do
            let x, w = Array.unsafe_get adj e in
            let ix = Array.unsafe_get idx x in
            if Array.unsafe_get in_s x then
              unsafe_set rd ((a * k) + ix) (w /. d)
            else unsafe_set ld ((a * nu) + ix) (-.(w /. d))
          done
        end
      done;
      Mat.data (Solve.solve_mat lhs rhs)
    end
  in
  (* Q's rows of S. A walk from s.(i) is at a vertex of S only at time 0,
     so Q[s.(i), v] = delta(s.(i), v) w_S(v)/d(v) for v in S, written
     exactly; for u in U, reversibility (d(x) P[x, y] = w(x, y)) turns
     (P_SU (I - P_UU)^{-1})[i, u] w_S(u)/d(u) into Y[u, i] w_S(u)/d(s.(i)). *)
  let q_rows = Mat.create ~rows:k ~cols:n 0.0 in
  let qd = Mat.data q_rows in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get s i in
    let d = unsafe_get deg v and row = i * n in
    if d = 0.0 then unsafe_set qd (row + v) 1.0
    else begin
      unsafe_set qd (row + v) (unsafe_get ws v /. d);
      for a = 0 to nu - 1 do
        let u = Array.unsafe_get u_of a in
        unsafe_set qd (row + u)
          (unsafe_get y ((a * k) + i) *. unsafe_get ws u /. d)
      done
    end
  done;
  (* M = P_SS + P_SU Y is the law of the first S-visit after time 0; the
     transition is M off the diagonal, each row divided by its off-diagonal
     sum. Every term is nonnegative, so nothing cancels, where 1 - M[i, i]
     could. *)
  let transition = Mat.create ~rows:k ~cols:k 0.0 in
  let td = Mat.data transition in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get s i in
    let d = unsafe_get deg v and row = i * k in
    let adj = Graph.neighbors g v in
    for e = 0 to Array.length adj - 1 do
      let x, w = Array.unsafe_get adj e in
      let p = w /. d and ix = Array.unsafe_get idx x in
      if Array.unsafe_get in_s x then
        unsafe_set td (row + ix) (unsafe_get td (row + ix) +. p)
      else
        let yrow = ix * k in
        for j = 0 to k - 1 do
          unsafe_set td (row + j)
            (unsafe_get td (row + j) +. (p *. unsafe_get y (yrow + j)))
        done
    done;
    unsafe_set td (row + i) 0.0;
    let total = ref 0.0 in
    for j = row to row + k - 1 do
      total := !total +. unsafe_get td j
    done;
    let total = !total in
    for j = row to row + k - 1 do
      unsafe_set td j (if total > 0.0 then unsafe_get td j /. total else 0.0)
    done
  done;
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
