type t = { probs : float array; cdf : float array }

(* [cumulate w] checks the weights [w], replaces each by the running sum of
   w.(i) /. total in index order, pins the last to 1.0 and returns total,
   the left fold of [w]. Monomorphic loops over the float array, so no
   entry is boxed. *)
let cumulate w =
  let n = Array.length w in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let x = w.(i) in
    if x < 0.0 || not (Float.is_finite x) then
      invalid_arg "Dist: weights must be finite and nonnegative";
    total := !total +. x
  done;
  let total = !total in
  if total <= 0.0 then invalid_arg "Dist.of_weights: all weights are zero";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (w.(i) /. total);
    w.(i) <- !acc
  done;
  w.(n - 1) <- 1.0;
  total

let cdf_in_place w = ignore (cumulate w)

let of_weights w =
  let cdf = Array.copy w in
  let total = cumulate cdf in
  let probs = Array.make (Array.length w) 0.0 in
  for i = 0 to Array.length w - 1 do
    probs.(i) <- w.(i) /. total
  done;
  { probs; cdf }

let uniform n =
  if n <= 0 then invalid_arg "Dist.uniform";
  of_weights (Array.make n 1.0)

let support_size d = Array.length d.probs
let prob d i = d.probs.(i)
let search cdf u =
  (* Smallest index with cdf.(i) > u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Checks each weight and takes the left-fold total, then draws the first
   index whose running sum passes [u] (the last if none does). Monomorphic
   loops over the float array, as in [cumulate], so no weight or sum is
   boxed. *)
let sample_weights w prng =
  let n = Array.length w in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let x = w.(i) in
    if x < 0.0 || not (Float.is_finite x) then
      invalid_arg "Dist: weights must be finite and nonnegative";
    total := !total +. x
  done;
  let total = !total in
  if total <= 0.0 then invalid_arg "Dist.sample_weights: all weights are zero";
  let u = Prng.float prng total in
  let i = ref 0 and acc = ref 0.0 and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. w.(!i);
    if u < !acc then found := true else incr i
  done;
  !i

let same_support a b =
  if support_size a <> support_size b then
    invalid_arg "Dist: support sizes differ"

let tv a b =
  same_support a b;
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. Float.abs (p -. b.probs.(i))) a.probs;
  0.5 *. !acc

let empirical counts =
  of_weights (Array.map float_of_int counts)

let tv_counts ~counts d =
  if Array.length counts <> support_size d then
    invalid_arg "Dist.tv_counts: support sizes differ";
  tv (empirical counts) d

(* The divergence's two degenerate directions are deliberately asymmetric
   (see dist.mli): mass of [a] where [b] has none makes the whole divergence
   [infinity] (the distributions are mutually singular on that outcome and
   no finite penalty is faithful), while mass of [b] where [a] has none
   contributes nothing (the 0 * log 0 = 0 convention). We short-circuit on
   the first infinite term so no NaN can arise from later arithmetic. *)
let kl a b =
  same_support a b;
  let n = support_size a in
  let exception Disjoint in
  try
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let p = a.probs.(i) in
      if p > 0.0 then
        if b.probs.(i) <= 0.0 then raise Disjoint
        else acc := !acc +. (p *. Float.log (p /. b.probs.(i)))
    done;
    !acc
  with Disjoint -> infinity

let chi_square_stat ~counts d =
  if Array.length counts <> support_size d then
    invalid_arg "Dist.chi_square_stat: support sizes differ";
  let total = Array.fold_left ( + ) 0 counts in
  let acc = ref 0.0 in
  Array.iteri
    (fun i c ->
      let expected = d.probs.(i) *. float_of_int total in
      if expected > 0.0 then
        let diff = float_of_int c -. expected in
        acc := !acc +. (diff *. diff /. expected)
      else if c > 0 then acc := infinity)
    counts;
  !acc
