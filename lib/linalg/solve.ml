(* Every kernel below works on the row-major [float array] behind a [Mat.t]
   with typed unchecked access, so the inner loops neither bounds-check nor
   box. Each loop index stays inside the dimensions checked on entry. *)
external unsafe_get : float array -> int -> float = "%array_unsafe_get"
external unsafe_set : float array -> int -> float -> unit = "%array_unsafe_set"

type lu = {
  a : float array; (* n x n: L below diagonal (unit diag implicit), U on and above *)
  n : int;
  perm : int array; (* row permutation *)
  swaps : int; (* number of row swaps, for the determinant sign *)
}

let pivot_tol = 1e-13

let lu m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Solve.lu: not square";
  let a = Array.copy (Mat.data m) in
  let perm = Array.init n (fun i -> i) in
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k at/below k;
       the strict [>] keeps the first of equal candidates. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if
        Float.abs (unsafe_get a ((i * n) + k))
        > Float.abs (unsafe_get a ((!best * n) + k))
      then best := i
    done;
    let rk = k * n in
    if !best <> k then begin
      let rb = !best * n in
      for j = 0 to n - 1 do
        let tmp = unsafe_get a (rk + j) in
        unsafe_set a (rk + j) (unsafe_get a (rb + j));
        unsafe_set a (rb + j) tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp;
      incr swaps
    end;
    let pivot = unsafe_get a (rk + k) in
    if Float.abs pivot > pivot_tol then begin
      (* Four rows per pass over the pivot row, then the rest one at a
         time: either way each entry takes its one [-. factor *. a[k,j]]
         at step k. *)
      let i = ref (k + 1) in
      while !i + 4 <= n do
        let r0 = !i * n in
        let r1 = r0 + n in
        let r2 = r1 + n in
        let r3 = r2 + n in
        let f0 = unsafe_get a (r0 + k) /. pivot
        and f1 = unsafe_get a (r1 + k) /. pivot
        and f2 = unsafe_get a (r2 + k) /. pivot
        and f3 = unsafe_get a (r3 + k) /. pivot in
        unsafe_set a (r0 + k) f0;
        unsafe_set a (r1 + k) f1;
        unsafe_set a (r2 + k) f2;
        unsafe_set a (r3 + k) f3;
        for j = k + 1 to n - 1 do
          let p = unsafe_get a (rk + j) in
          unsafe_set a (r0 + j) (unsafe_get a (r0 + j) -. (f0 *. p));
          unsafe_set a (r1 + j) (unsafe_get a (r1 + j) -. (f1 *. p));
          unsafe_set a (r2 + j) (unsafe_get a (r2 + j) -. (f2 *. p));
          unsafe_set a (r3 + j) (unsafe_get a (r3 + j) -. (f3 *. p))
        done;
        i := !i + 4
      done;
      for i = !i to n - 1 do
        let ri = i * n in
        let factor = unsafe_get a (ri + k) /. pivot in
        unsafe_set a (ri + k) factor;
        for j = k + 1 to n - 1 do
          unsafe_set a (ri + j)
            (unsafe_get a (ri + j) -. (factor *. unsafe_get a (rk + j)))
        done
      done
    end
  done;
  { a; n; perm; swaps = !swaps }

let is_singular f =
  let rec go k =
    k < f.n
    && (Float.abs (unsafe_get f.a ((k * f.n) + k)) <= pivot_tol || go (k + 1))
  in
  go 0

let check_solvable f ~rhs_rows =
  if rhs_rows <> f.n then invalid_arg "Solve.lu_solve: dimension mismatch";
  if is_singular f then failwith "Solve.lu_solve: singular matrix"

(* [x] is an n x [k] row-major block whose row i holds row [perm.(i)] of the
   right-hand sides. [subtract_rows f x ~k ~i ~lo ~hi] subtracts
   [a[i,j] * x[j,c]] from [x[i,c]] for each j in [lo, hi) in ascending order
   and each column c. The columns go in tiles of four j by eight c: a tile
   loads its eight entries, subtracts the four terms of each in ascending j
   and stores them, so eight independent chains are in flight. The fewer
   than four j left over take one pass per column of the tiles, and the
   fewer than eight columns left over take one pass over every j, each
   with the entry in a register. Every entry sees the same [-.] terms in
   the same order either way. There is no zero skip: [0 *. inf] must still
   make a NaN. *)
let subtract_rows f x ~k ~i ~lo ~hi =
  let a = f.a and ri = i * f.n and xi = i * k in
  let ct = k land lnot 7 in
  let j = ref lo in
  while ct > 0 && !j + 4 <= hi do
    let j0 = !j in
    let a0 = unsafe_get a (ri + j0) and a1 = unsafe_get a (ri + j0 + 1)
    and a2 = unsafe_get a (ri + j0 + 2) and a3 = unsafe_get a (ri + j0 + 3) in
    let x0 = j0 * k in
    let x1 = x0 + k in
    let x2 = x1 + k in
    let x3 = x2 + k in
    let c = ref 0 in
    while !c < ct do
      let o = xi + !c in
      let p0 = x0 + !c and p1 = x1 + !c and p2 = x2 + !c and p3 = x3 + !c in
      let v0 = unsafe_get x o and v1 = unsafe_get x (o + 1)
      and v2 = unsafe_get x (o + 2) and v3 = unsafe_get x (o + 3)
      and v4 = unsafe_get x (o + 4) and v5 = unsafe_get x (o + 5)
      and v6 = unsafe_get x (o + 6) and v7 = unsafe_get x (o + 7) in
      let v0 = v0 -. (a0 *. unsafe_get x p0)
      and v1 = v1 -. (a0 *. unsafe_get x (p0 + 1))
      and v2 = v2 -. (a0 *. unsafe_get x (p0 + 2))
      and v3 = v3 -. (a0 *. unsafe_get x (p0 + 3))
      and v4 = v4 -. (a0 *. unsafe_get x (p0 + 4))
      and v5 = v5 -. (a0 *. unsafe_get x (p0 + 5))
      and v6 = v6 -. (a0 *. unsafe_get x (p0 + 6))
      and v7 = v7 -. (a0 *. unsafe_get x (p0 + 7)) in
      let v0 = v0 -. (a1 *. unsafe_get x p1)
      and v1 = v1 -. (a1 *. unsafe_get x (p1 + 1))
      and v2 = v2 -. (a1 *. unsafe_get x (p1 + 2))
      and v3 = v3 -. (a1 *. unsafe_get x (p1 + 3))
      and v4 = v4 -. (a1 *. unsafe_get x (p1 + 4))
      and v5 = v5 -. (a1 *. unsafe_get x (p1 + 5))
      and v6 = v6 -. (a1 *. unsafe_get x (p1 + 6))
      and v7 = v7 -. (a1 *. unsafe_get x (p1 + 7)) in
      let v0 = v0 -. (a2 *. unsafe_get x p2)
      and v1 = v1 -. (a2 *. unsafe_get x (p2 + 1))
      and v2 = v2 -. (a2 *. unsafe_get x (p2 + 2))
      and v3 = v3 -. (a2 *. unsafe_get x (p2 + 3))
      and v4 = v4 -. (a2 *. unsafe_get x (p2 + 4))
      and v5 = v5 -. (a2 *. unsafe_get x (p2 + 5))
      and v6 = v6 -. (a2 *. unsafe_get x (p2 + 6))
      and v7 = v7 -. (a2 *. unsafe_get x (p2 + 7)) in
      let v0 = v0 -. (a3 *. unsafe_get x p3)
      and v1 = v1 -. (a3 *. unsafe_get x (p3 + 1))
      and v2 = v2 -. (a3 *. unsafe_get x (p3 + 2))
      and v3 = v3 -. (a3 *. unsafe_get x (p3 + 3))
      and v4 = v4 -. (a3 *. unsafe_get x (p3 + 4))
      and v5 = v5 -. (a3 *. unsafe_get x (p3 + 5))
      and v6 = v6 -. (a3 *. unsafe_get x (p3 + 6))
      and v7 = v7 -. (a3 *. unsafe_get x (p3 + 7)) in
      unsafe_set x o v0; unsafe_set x (o + 1) v1;
      unsafe_set x (o + 2) v2; unsafe_set x (o + 3) v3;
      unsafe_set x (o + 4) v4; unsafe_set x (o + 5) v5;
      unsafe_set x (o + 6) v6; unsafe_set x (o + 7) v7;
      c := !c + 8
    done;
    j := j0 + 4
  done;
  let rest = !j in
  if rest < hi then
    for c = 0 to ct - 1 do
      let v = ref (unsafe_get x (xi + c)) in
      for j = rest to hi - 1 do
        v := !v -. (unsafe_get a (ri + j) *. unsafe_get x ((j * k) + c))
      done;
      unsafe_set x (xi + c) !v
    done;
  for c = ct to k - 1 do
    let v = ref (unsafe_get x (xi + c)) in
    for j = lo to hi - 1 do
      v := !v -. (unsafe_get a (ri + j) *. unsafe_get x ((j * k) + c))
    done;
    unsafe_set x (xi + c) !v
  done

(* Solves [x] in place: forward substitution with unit lower-triangular L,
   then back substitution with U, row by row. *)
let substitute f x ~k =
  let n = f.n in
  for i = 1 to n - 1 do
    subtract_rows f x ~k ~i ~lo:0 ~hi:i
  done;
  for i = n - 1 downto 0 do
    subtract_rows f x ~k ~i ~lo:(i + 1) ~hi:n;
    let d = unsafe_get f.a ((i * n) + i) and xi = i * k in
    for c = 0 to k - 1 do
      unsafe_set x (xi + c) (unsafe_get x (xi + c) /. d)
    done
  done

let solve m b =
  let f = lu m in
  check_solvable f ~rhs_rows:(Array.length b);
  let x = Array.init f.n (fun i -> b.(f.perm.(i))) in
  substitute f x ~k:1;
  x

let solve_mat m b =
  let f = lu m in
  check_solvable f ~rhs_rows:(Mat.rows b);
  let n = f.n and k = Mat.cols b in
  let out = Mat.create ~rows:n ~cols:k 0.0 in
  let bd = Mat.data b and od = Mat.data out in
  for i = 0 to n - 1 do
    Array.blit bd (f.perm.(i) * k) od (i * k) k
  done;
  substitute f od ~k;
  out

let inverse m = solve_mat m (Mat.identity (Mat.rows m))

let log_determinant m =
  let f = lu m in
  let sign = ref (if f.swaps land 1 = 1 then -1 else 1) in
  let acc = ref 0.0 in
  (try
     for k = 0 to f.n - 1 do
       let d = unsafe_get f.a ((k * f.n) + k) in
       if Float.abs d <= pivot_tol then begin
         sign := 0;
         raise Exit
       end;
       if d < 0.0 then sign := - !sign;
       acc := !acc +. Float.log (Float.abs d)
     done
   with Exit -> ());
  if !sign = 0 then (0, neg_infinity) else (!sign, !acc)

let determinant m =
  match log_determinant m with
  | 0, _ -> 0.0
  | sign, logdet -> float_of_int sign *. Float.exp logdet

let schur_complement m ~keep =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Solve.schur_complement: not square";
  let in_keep = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Solve.schur_complement: bad index";
      if in_keep.(i) then invalid_arg "Solve.schur_complement: duplicate index";
      in_keep.(i) <- true)
    keep;
  let elim =
    Array.of_list
      (List.filter (fun i -> not in_keep.(i)) (List.init n (fun i -> i)))
  in
  if Array.length elim = 0 then Mat.submatrix m ~row_idx:keep ~col_idx:keep
  else begin
    let m_ss = Mat.submatrix m ~row_idx:keep ~col_idx:keep in
    let m_se = Mat.submatrix m ~row_idx:keep ~col_idx:elim in
    let m_es = Mat.submatrix m ~row_idx:elim ~col_idx:keep in
    let m_ee = Mat.submatrix m ~row_idx:elim ~col_idx:elim in
    (* M_SS - M_S,E (M_EE)^{-1} M_E,S, via a solve rather than an explicit
       inverse for stability. *)
    let x = solve_mat m_ee m_es in
    Mat.sub m_ss (Mat.mul m_se x)
  end
