let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty input";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let quantile q xs =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty input";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  for i = 0 to n - 1 do
    sxy := !sxy +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    sxx := !sxx +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
  done;
  if !sxx = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx))

let fit_power xs ys =
  Array.iter
    (fun x -> if x <= 0.0 then invalid_arg "Stats.fit_power: nonpositive x")
    xs;
  Array.iter
    (fun y -> if y <= 0.0 then invalid_arg "Stats.fit_power: nonpositive y")
    ys;
  let lx = Array.map Float.log xs and ly = Array.map Float.log ys in
  let slope, intercept = linear_fit lx ly in
  (slope, Float.exp intercept)

let binomial_confidence ~n ~p =
  if n <= 0 then invalid_arg "Stats.binomial_confidence";
  2.0 *. sqrt (p *. (1.0 -. p) /. float_of_int n)

let tv_noise_floor ~samples ~support =
  if samples <= 0 || support <= 0 then invalid_arg "Stats.tv_noise_floor";
  sqrt (float_of_int support /. (2.0 *. Float.pi *. float_of_int samples))
