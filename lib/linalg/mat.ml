type t = { rows : int; cols : int; data : float array }

(* Typed so the compiler emits a direct, unboxed float load/store. A [let]
   alias of [Array.unsafe_get] would stay polymorphic and box every read.
   Every use below stays in range by the dimensions or indices checked
   before it. *)
external unsafe_get : float array -> int -> float = "%array_unsafe_get"
external unsafe_set : float array -> int -> float -> unit = "%array_unsafe_set"

let create ~rows ~cols v =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: nonpositive dims";
  { rows; cols; data = Array.make (rows * cols) v }

let init ~rows ~cols f =
  let m = create ~rows ~cols 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)
let copy m = { m with data = Array.copy m.data }
let rows m = m.rows
let cols m = m.cols
let data m = m.data

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: index out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: index out of bounds";
  m.data.((i * m.cols) + j) <- v

let two_step m p j q =
  let c = m.cols in
  if m.rows <> c || p < 0 || p >= c || j < 0 || j >= c || q < 0 || q >= c then
    invalid_arg "Mat.two_step: not square or index out of bounds";
  unsafe_get m.data ((p * c) + j) *. unsafe_get m.data ((j * c) + q)

let two_step_into m ~p ~q buf =
  let c = m.cols in
  if m.rows <> c || p < 0 || p >= c || q < 0 || q >= c || Array.length buf <> c
  then invalid_arg "Mat.two_step_into: bad shape or index";
  let d = m.data and prow = p * c in
  for j = 0 to c - 1 do
    unsafe_set buf j (unsafe_get d (prow + j) *. unsafe_get d ((j * c) + q))
  done

let col_diff_into m ~u ~v y =
  let c = m.cols in
  if m.rows <> c || u < 0 || u >= c || v < 0 || v >= c || Array.length y <> c
  then invalid_arg "Mat.col_diff_into: bad shape or index";
  let d = m.data in
  for i = 0 to c - 1 do
    let row = i * c in
    unsafe_set y i (unsafe_get d (row + u) -. unsafe_get d (row + v))
  done

let add_outer_in_place m s y =
  let c = m.cols in
  if m.rows <> c || Array.length y <> c then
    invalid_arg "Mat.add_outer_in_place: bad shape";
  let d = m.data in
  for i = 0 to c - 1 do
    let syi = s *. unsafe_get y i and row = i * c in
    for j = 0 to c - 1 do
      unsafe_set d (row + j) (unsafe_get d (row + j) +. (syi *. unsafe_get y j))
    done
  done

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row";
  Array.sub m.data (i * m.cols) m.cols

let dims_must_match a b name =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

(* Row [i] of [a * b] into [out]. Entry (i, j) adds [a[i,k] *. b[k,j]] for
   each nonzero [a[i,k]] in ascending k, one [+.] per term ({!mul}'s
   contract). [ks] (length [a.cols]) receives those k. The kernel works in
   tiles of four k by eight j: a tile loads its eight entries, adds the four
   terms of each in ascending k, and stores them, so eight independent sums
   are in flight instead of one chain of dependent adds (DESIGN.md §15).
   Columns past the last full eight take the tile's four terms one
   entry at a time, and the fewer than four k left over take one pass over
   j each. None of this changes an entry's terms or their order. *)
let mul_row a b out ks i =
  let ad = a.data and bd = b.data and od = out.data and bc = b.cols in
  let arow = i * a.cols and orow = i * bc in
  let nz = ref 0 in
  for k = 0 to a.cols - 1 do
    if unsafe_get ad (arow + k) <> 0.0 then begin
      Array.unsafe_set ks !nz k;
      incr nz
    end
  done;
  let nz = !nz and jt = bc land lnot 7 in
  let t = ref 0 in
  while !t + 4 <= nz do
    let k0 = Array.unsafe_get ks !t and k1 = Array.unsafe_get ks (!t + 1)
    and k2 = Array.unsafe_get ks (!t + 2)
    and k3 = Array.unsafe_get ks (!t + 3) in
    let a0 = unsafe_get ad (arow + k0) and a1 = unsafe_get ad (arow + k1)
    and a2 = unsafe_get ad (arow + k2) and a3 = unsafe_get ad (arow + k3) in
    let b0 = k0 * bc and b1 = k1 * bc and b2 = k2 * bc and b3 = k3 * bc in
    let j = ref 0 in
    while !j < jt do
      let o = orow + !j in
      let p0 = b0 + !j and p1 = b1 + !j and p2 = b2 + !j and p3 = b3 + !j in
      let c0 = unsafe_get od o and c1 = unsafe_get od (o + 1)
      and c2 = unsafe_get od (o + 2) and c3 = unsafe_get od (o + 3)
      and c4 = unsafe_get od (o + 4) and c5 = unsafe_get od (o + 5)
      and c6 = unsafe_get od (o + 6) and c7 = unsafe_get od (o + 7) in
      let c0 = c0 +. (a0 *. unsafe_get bd p0)
      and c1 = c1 +. (a0 *. unsafe_get bd (p0 + 1))
      and c2 = c2 +. (a0 *. unsafe_get bd (p0 + 2))
      and c3 = c3 +. (a0 *. unsafe_get bd (p0 + 3))
      and c4 = c4 +. (a0 *. unsafe_get bd (p0 + 4))
      and c5 = c5 +. (a0 *. unsafe_get bd (p0 + 5))
      and c6 = c6 +. (a0 *. unsafe_get bd (p0 + 6))
      and c7 = c7 +. (a0 *. unsafe_get bd (p0 + 7)) in
      let c0 = c0 +. (a1 *. unsafe_get bd p1)
      and c1 = c1 +. (a1 *. unsafe_get bd (p1 + 1))
      and c2 = c2 +. (a1 *. unsafe_get bd (p1 + 2))
      and c3 = c3 +. (a1 *. unsafe_get bd (p1 + 3))
      and c4 = c4 +. (a1 *. unsafe_get bd (p1 + 4))
      and c5 = c5 +. (a1 *. unsafe_get bd (p1 + 5))
      and c6 = c6 +. (a1 *. unsafe_get bd (p1 + 6))
      and c7 = c7 +. (a1 *. unsafe_get bd (p1 + 7)) in
      let c0 = c0 +. (a2 *. unsafe_get bd p2)
      and c1 = c1 +. (a2 *. unsafe_get bd (p2 + 1))
      and c2 = c2 +. (a2 *. unsafe_get bd (p2 + 2))
      and c3 = c3 +. (a2 *. unsafe_get bd (p2 + 3))
      and c4 = c4 +. (a2 *. unsafe_get bd (p2 + 4))
      and c5 = c5 +. (a2 *. unsafe_get bd (p2 + 5))
      and c6 = c6 +. (a2 *. unsafe_get bd (p2 + 6))
      and c7 = c7 +. (a2 *. unsafe_get bd (p2 + 7)) in
      let c0 = c0 +. (a3 *. unsafe_get bd p3)
      and c1 = c1 +. (a3 *. unsafe_get bd (p3 + 1))
      and c2 = c2 +. (a3 *. unsafe_get bd (p3 + 2))
      and c3 = c3 +. (a3 *. unsafe_get bd (p3 + 3))
      and c4 = c4 +. (a3 *. unsafe_get bd (p3 + 4))
      and c5 = c5 +. (a3 *. unsafe_get bd (p3 + 5))
      and c6 = c6 +. (a3 *. unsafe_get bd (p3 + 6))
      and c7 = c7 +. (a3 *. unsafe_get bd (p3 + 7)) in
      unsafe_set od o c0; unsafe_set od (o + 1) c1;
      unsafe_set od (o + 2) c2; unsafe_set od (o + 3) c3;
      unsafe_set od (o + 4) c4; unsafe_set od (o + 5) c5;
      unsafe_set od (o + 6) c6; unsafe_set od (o + 7) c7;
      j := !j + 8
    done;
    for j = jt to bc - 1 do
      let c = unsafe_get od (orow + j) in
      let c = c +. (a0 *. unsafe_get bd (b0 + j)) in
      let c = c +. (a1 *. unsafe_get bd (b1 + j)) in
      let c = c +. (a2 *. unsafe_get bd (b2 + j)) in
      let c = c +. (a3 *. unsafe_get bd (b3 + j)) in
      unsafe_set od (orow + j) c
    done;
    t := !t + 4
  done;
  for t = !t to nz - 1 do
    let k = Array.unsafe_get ks t in
    let aik = unsafe_get ad (arow + k) and brow = k * bc in
    for j = 0 to bc - 1 do
      unsafe_set od (orow + j)
        (unsafe_get od (orow + j) +. (aik *. unsafe_get bd (brow + j)))
    done
  done

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let out = create ~rows:a.rows ~cols:b.cols 0.0 in
  let ks = Array.make a.cols 0 in
  for i = 0 to a.rows - 1 do
    mul_row a b out ks i
  done;
  out

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.(base + j) *. v.(j))
      done;
      !acc)

let vec_mul v m =
  if Array.length v <> m.rows then invalid_arg "Mat.vec_mul: dimension mismatch";
  let out = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (vi *. m.data.(base + j))
      done
  done;
  out

let power m k =
  if m.rows <> m.cols then invalid_arg "Mat.power: not square";
  if k < 0 then invalid_arg "Mat.power: negative exponent";
  let rec go acc base k =
    if k = 0 then acc
    else
      let acc = if k land 1 = 1 then mul acc base else acc in
      if k = 1 then acc else go acc (mul base base) (k lsr 1)
  in
  go (identity m.rows) m k

(* Off the diagonal the [+. 0.0] stays: it turns a [-0.0] into [0.0]. *)
let half_lazy m =
  if m.rows <> m.cols then invalid_arg "Mat.half_lazy: not square";
  let n = m.rows in
  let out = create ~rows:n ~cols:n 0.0 in
  let d = m.data and od = out.data in
  for i = 0 to n - 1 do
    let row = i * n in
    for j = 0 to n - 1 do
      unsafe_set od (row + j)
        ((0.5 *. unsafe_get d (row + j)) +. if i = j then 0.5 else 0.0)
    done
  done;
  out

(* The bound of {!squarings}' rows test, and of its stochastic check on the
   base matrix. A constant, not a knob: DESIGN.md §17 derives the error it
   allows. *)
let converged_tol = 1e-12

(* delta_max, the relative bound of the mixed-level check: every Formula 1
   law at a mixed level is within this much of the shared one in total
   variation (DESIGN.md §17). Also a constant. *)
let mixed_tol = 1e-10

(* Every entry is nonnegative and every row sums, left to right, to within
   [converged_tol] of 1. NaN fails both. It allows no negative dust, which
   the rows test's proof cannot absorb, and boxes no float. *)
let stochastic_within_tol m =
  let d = m.data and c = m.cols in
  let rec from i =
    i >= m.rows
    ||
    let base = i * c in
    let sum = ref 0.0 and nonneg = ref true in
    for p = base to base + c - 1 do
      let x = unsafe_get d p in
      if not (x >= 0.0) then nonneg := false;
      sum := !sum +. x
    done;
    !nonneg && Float.abs (!sum -. 1.0) <= converged_tol && from (i + 1)
  in
  from 0

(* Entry for entry the same bits, stopping at the first difference. *)
let same_bits a b =
  let d = a.data and e = b.data in
  let len = Array.length d in
  let k = ref 0 in
  while
    !k < len
    && Int64.bits_of_float (unsafe_get d !k)
       = Int64.bits_of_float (unsafe_get e !k)
  do
    incr k
  done;
  !k = len

(* Every row within [converged_tol] of row 0 in l1, stopping at the first
   row past the bound: O(cols) on a level that has not converged. *)
let rows_agree m =
  let d = m.data and c = m.cols in
  let rec from i =
    i >= m.rows
    ||
    let base = i * c in
    let dist = ref 0.0 in
    for j = 0 to c - 1 do
      dist := !dist +. Float.abs (unsafe_get d (base + j) -. unsafe_get d j)
    done;
    !dist <= converged_tol && from (i + 1)
  in
  from 1

(* Every entry within [mixed_tol] of row 0's entry in its column, relative
   to that entry: |m[r,j] - m[0,j]| <= mixed_tol * m[0,j]. A zero in row 0
   admits only zeros below it, and NaN fails. O(rows * cols), stopping at
   the first entry past the bound. *)
let columns_agree m =
  let d = m.data and c = m.cols in
  let rec from i =
    i >= m.rows
    ||
    let base = i * c in
    let j = ref 0 in
    while
      !j < c
      &&
      let x0 = unsafe_get d !j in
      Float.abs (unsafe_get d (base + !j) -. x0) <= mixed_tol *. x0
    do
      incr j
    done;
    !j = c && from (i + 1)
  in
  from 1

let squarings ~exact ~square m ~levels =
  if m.rows <> m.cols then invalid_arg "Mat.squarings: not square";
  if levels < 0 then invalid_arg "Mat.squarings: negative levels";
  let table = Array.make (levels + 1) m in
  let rows_may_stop = (not exact) && stochastic_within_tol m in
  let rec level i =
    if i > levels then None
    else begin
      let prev = table.(i - 1) in
      let t = square prev in
      table.(i) <- t;
      let repeat = same_bits t prev in
      if repeat || (rows_may_stop && rows_agree t) then begin
        Array.fill table (i + 1) (levels - i) t;
        if (not repeat) && columns_agree t then Some i else None
      end
      else level (i + 1)
    end
  in
  let mixed = level 1 in
  (table, mixed)

let power_table m ~max_exp =
  if m.rows <> m.cols then invalid_arg "Mat.power_table: not square";
  if max_exp < 0 then invalid_arg "Mat.power_table: negative exponent";
  fst (squarings ~exact:false ~square:(fun t -> mul t t) m ~levels:max_exp)

let submatrix m ~row_idx ~col_idx =
  let in_range bound i = i >= 0 && i < bound in
  if
    not
      (Array.for_all (in_range m.rows) row_idx
      && Array.for_all (in_range m.cols) col_idx)
  then invalid_arg "Mat.submatrix: index out of bounds";
  init ~rows:(Array.length row_idx) ~cols:(Array.length col_idx) (fun i j ->
      unsafe_get m.data ((row_idx.(i) * m.cols) + col_idx.(j)))

let max_abs_diff a b =
  dims_must_match a b "Mat.max_abs_diff";
  let acc = ref 0.0 in
  Array.iteri
    (fun k x -> acc := Float.max !acc (Float.abs (x -. b.data.(k))))
    a.data;
  !acc

let max_subtractive_error ~exact ~approx =
  dims_must_match exact approx "Mat.max_subtractive_error";
  let acc = ref 0.0 in
  Array.iteri
    (fun k x -> acc := Float.max !acc (x -. approx.data.(k)))
    exact.data;
  Float.max !acc 0.0

let normalize_rows m =
  let out = copy m in
  for i = 0 to m.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. out.data.((i * m.cols) + j)
    done;
    if !s <> 0.0 then
      for j = 0 to m.cols - 1 do
        out.data.((i * m.cols) + j) <- out.data.((i * m.cols) + j) /. !s
      done
  done;
  out

(* One row at a time: clamp each entry at 0, sum the row left to right, then
   divide — the float operations of [normalize_rows] applied to the clamped
   matrix, in the same order. The clamp is [Float.max 0.0 x] bit for bit
   (NaN stays, [-0.0] becomes [0.0]) without its call and boxing. *)
let sanitize_stochastic m =
  let out = create ~rows:m.rows ~cols:m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let s = ref 0.0 in
    for p = base to base + m.cols - 1 do
      let x = unsafe_get m.data p in
      let x = if x > 0.0 || Float.is_nan x then x else 0.0 in
      unsafe_set out.data p x;
      s := !s +. x
    done;
    if !s <> 0.0 then
      for p = base to base + m.cols - 1 do
        unsafe_set out.data p (unsafe_get out.data p /. !s)
      done
  done;
  out

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%8.5f" (get m i j)
    done;
    Format.fprintf fmt "]@,"
  done;
  Format.fprintf fmt "@]"
