(* Typed unchecked access, so the loops neither bounds-check nor box. Every
   index stays inside the block's dimensions, checked in [factor]. *)
external unsafe_get : float array -> int -> float = "%array_unsafe_get"
external unsafe_set : float array -> int -> float -> unit = "%array_unsafe_set"

(* [a] is the eliminated block: row k holds w(k, j) for j > k as it stood
   when k was eliminated, the kept columns included. *)
type t = { a : float array; nu : int; nk : int; pivots : float array }

let factor a ~nu ~nk =
  if nu < 0 || nk < 0 || Array.length a <> nu * (nu + nk) then
    invalid_arg "Gth.factor: the block must be nu x (nu + nk)";
  let w = nu + nk in
  let pivots = Array.make nu 0.0 in
  for k = 0 to nu - 1 do
    let rk = k * w in
    let d = ref 0.0 in
    for j = rk + k + 1 to rk + w - 1 do
      d := !d +. unsafe_get a j
    done;
    let d = !d in
    unsafe_set pivots k d;
    (* A zero weight w(k, i) adds nothing to row i, so it is skipped; a
       zero pivot has only zero weights. *)
    for i = k + 1 to nu - 1 do
      let wki = unsafe_get a (rk + i) in
      if wki > 0.0 then begin
        let f = wki /. d and ri = i * w in
        for j = i + 1 to w - 1 do
          unsafe_set a (ri + j)
            (unsafe_get a (ri + j) +. (f *. unsafe_get a (rk + j)))
        done
      end
    done
  done;
  { a; nu; nk; pivots }

let log_det f =
  Array.fold_left (fun acc d -> acc +. Float.log d) 0.0 f.pivots

let check_pivots f =
  if Array.exists (fun d -> d = 0.0) f.pivots then
    failwith "Gth: some component of the graph has no kept vertex"

(* Back substitution, row k from the rows after it: Y[k] = (Z[k] +
   sum_{j > k} w(k, j) Y[j]) / d_k, where Z[k], the kept columns of row k,
   is already forward-substituted by the elimination itself. *)
let harmonic f =
  check_pivots f;
  let { a; nu; nk; pivots } = f in
  let w = nu + nk in
  let y = Array.make (nu * nk) 0.0 in
  for k = nu - 1 downto 0 do
    let rk = k * w and yk = k * nk in
    Array.blit a (rk + nu) y yk nk;
    for j = k + 1 to nu - 1 do
      let wkj = unsafe_get a (rk + j) in
      if wkj > 0.0 then begin
        let yj = j * nk in
        for c = 0 to nk - 1 do
          unsafe_set y (yk + c)
            (unsafe_get y (yk + c) +. (wkj *. unsafe_get y (yj + c)))
        done
      end
    done;
    let d = unsafe_get pivots k in
    for c = yk to yk + nk - 1 do
      unsafe_set y c (unsafe_get y c /. d)
    done
  done;
  y

(* Forward with (I - N)^T, whose entries below the diagonal are
   w(k, i)/d_k, then back with D (I - N), in place. *)
let solve f b =
  let { a; nu; nk; pivots } = f in
  if Array.length b <> nu then
    invalid_arg "Gth.solve: b must have one entry per eliminated vertex";
  check_pivots f;
  let w = nu + nk in
  let x = Array.copy b in
  for k = 0 to nu - 1 do
    let rk = k * w in
    let t = unsafe_get x k /. unsafe_get pivots k in
    if t <> 0.0 then
      for i = k + 1 to nu - 1 do
        unsafe_set x i (unsafe_get x i +. (unsafe_get a (rk + i) *. t))
      done
  done;
  for k = nu - 1 downto 0 do
    let rk = k * w in
    let s = ref (unsafe_get x k) in
    for j = k + 1 to nu - 1 do
      s := !s +. (unsafe_get a (rk + j) *. unsafe_get x j)
    done;
    unsafe_set x k (!s /. unsafe_get pivots k)
  done;
  x

(* X = (I - N)^{-1} D^{-1} (I - N)^{-T}, so (I - N) X = D^{-1} (I - N)^{-T},
   which is lower triangular with 1/d_k on the diagonal. Row k from the
   rows after it: X[k, c] = sum_{j > k} w(k, j) X[j, c] / d_k for c > k,
   mirrored into X[c, k], then X[k, k] = (1 + sum_{c > k} w(k, c) X[k, c])
   / d_k. *)
let inverse f =
  check_pivots f;
  let { a; nu; nk; pivots } = f in
  let w = nu + nk in
  let x = Array.make (nu * nu) 0.0 in
  for k = nu - 1 downto 0 do
    let rk = k * w and xk = k * nu in
    for j = k + 1 to nu - 1 do
      let wkj = unsafe_get a (rk + j) in
      if wkj > 0.0 then begin
        let xj = j * nu in
        for c = k + 1 to nu - 1 do
          unsafe_set x (xk + c)
            (unsafe_get x (xk + c) +. (wkj *. unsafe_get x (xj + c)))
        done
      end
    done;
    let d = unsafe_get pivots k in
    let diag = ref 1.0 in
    for c = k + 1 to nu - 1 do
      let v = unsafe_get x (xk + c) /. d in
      unsafe_set x (xk + c) v;
      unsafe_set x ((c * nu) + k) v;
      diag := !diag +. (unsafe_get a (rk + c) *. v)
    done;
    unsafe_set x (xk + k) (!diag /. d)
  done;
  x
