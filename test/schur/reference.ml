(* The Schur complement graph, and the later-phase state as lib/schur
   computed it before the subtraction-free elimination, through checked accesses, closures and the boxing
   folds of [Graph.weighted_degree] and [Shortcut.s_weight]: [phase_exact]
   from one LU solve of I - P_UU in transition units (test/linalg's
   reference LU), and Algorithm 4's weights with each neighbour's w_S(u)
   folded again from its adjacency. test_schur holds the library's state
   within a tolerance of this one, and its first-visit weights to these
   bit for bit. [graph_exact] is SCHUR(G, S) as a weighted graph, from the
   Schur complement of test/shared's Laplacian by the same reference LU.
   Test-only: nothing in lib/ calls this module. *)

module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Lu = Linalg_reference.Reference
module Schur = Cc_schur.Schur

(* SCHUR(G, S) on [|s|] relabeled vertices: the edges are the positive
   negated off-diagonal entries of the Laplacian's Schur complement onto S,
   above the diagonal. *)
let graph_exact g ~s =
  let k = Array.length s in
  let l = Lu.schur_complement (Shared.laplacian g) ~keep:s in
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let w = -.Mat.get l i j in
      if w > 0.0 then edges := (i, j, w) :: !edges
    done
  done;
  Graph.of_edges ~n:k !edges

let weighted_degree g u =
  Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Graph.neighbors g u)

let s_weight g ~in_s u =
  Array.fold_left
    (fun acc (v, w) -> if in_s.(v) then acc +. w else acc)
    0.0 (Graph.neighbors g u)

let phase_exact g ~s =
  let n = Graph.n g and k = Array.length s in
  let in_s = Schur.members ~n ~s in
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
  let deg = Array.init n (weighted_degree g) in
  let ws = Array.init n (s_weight g ~in_s) in
  let y =
    if nu = 0 then [||]
    else begin
      let lhs = Mat.create ~rows:nu ~cols:nu 0.0
      and rhs = Mat.create ~rows:nu ~cols:k 0.0 in
      let ld = Mat.data lhs and rd = Mat.data rhs in
      Array.iteri
        (fun a u ->
          let d = deg.(u) in
          if d <> 0.0 then begin
            ld.((a * nu) + a) <- 1.0;
            Array.iter
              (fun (x, w) ->
                if in_s.(x) then rd.((a * k) + idx.(x)) <- w /. d
                else ld.((a * nu) + idx.(x)) <- -.(w /. d))
              (Graph.neighbors g u)
          end)
        u_of;
      Mat.data (Lu.solve_mat lhs rhs)
    end
  in
  let q_rows = Mat.create ~rows:k ~cols:n 0.0 in
  let qd = Mat.data q_rows in
  Array.iteri
    (fun i v ->
      let d = deg.(v) and row = i * n in
      if d = 0.0 then qd.(row + v) <- 1.0
      else begin
        qd.(row + v) <- ws.(v) /. d;
        Array.iteri
          (fun a u -> qd.(row + u) <- y.((a * k) + i) *. ws.(u) /. d)
          u_of
      end)
    s;
  let transition = Mat.create ~rows:k ~cols:k 0.0 in
  let td = Mat.data transition in
  Array.iteri
    (fun i v ->
      let d = deg.(v) and row = i * k in
      Array.iter
        (fun (x, w) ->
          let p = w /. d in
          if in_s.(x) then td.(row + idx.(x)) <- td.(row + idx.(x)) +. p
          else
            let yrow = idx.(x) * k in
            for j = 0 to k - 1 do
              td.(row + j) <- td.(row + j) +. (p *. y.(yrow + j))
            done)
        (Graph.neighbors g v);
      td.(row + i) <- 0.0;
      let total = ref 0.0 in
      for j = row to row + k - 1 do
        total := !total +. td.(j)
      done;
      for j = row to row + k - 1 do
        td.(j) <- (if !total > 0.0 then td.(j) /. !total else 0.0)
      done)
    s;
  { Schur.q_rows; transition }

let first_visit_weights g q ~in_s ~row ~target =
  Array.map
    (fun (u, w_uv) ->
      let ws = s_weight g ~in_s u in
      let w = if ws = 0.0 then 0.0 else Mat.get q row u *. w_uv /. ws in
      (u, w))
    (Graph.neighbors g target)
