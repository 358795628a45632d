module Prng = Cc_util.Prng

(* The contingency-table form of an instance: instances sorted by identity
   ([order]), one row per distinct identity, positions grouped into classes
   of equal (p,q), and one weight per (row, class). *)
type t = {
  order : int array; (* instance indexes sorted by identity *)
  row : int array; (* instance -> its identity's row of [weights] *)
  class_of : int array; (* position -> class *)
  members : int array array; (* class -> its positions, ascending *)
  weights : float array array; (* row -> class -> weight *)
  states : int; (* prod over classes of (size + 1), saturated at max_int *)
}

(* [label_runs sorted same] numbers the runs of [same] elements along the
   index array [sorted]: the label of each index, and the number of runs. *)
let label_runs sorted same =
  let label = Array.make (Array.length sorted) 0 and last = ref 0 in
  Array.iteri
    (fun idx x ->
      if idx > 0 && not (same x sorted.(idx - 1)) then incr last;
      label.(x) <- !last)
    sorted;
  (label, !last + 1)

let build ~identities ~positions ~weight =
  let k = Array.length identities in
  if k = 0 then invalid_arg "Placement.build: empty instance";
  if Array.length positions <> k then
    invalid_arg "Placement.build: instance/position count mismatch";
  (* Position classes in ascending (p,q) order, members in ascending index. *)
  let by_pair = Array.init k Fun.id in
  Array.stable_sort (fun a b -> compare positions.(a) positions.(b)) by_pair;
  let class_of, nclasses =
    label_runs by_pair (fun a b -> positions.(a) = positions.(b))
  in
  let sizes = Array.make nclasses 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) class_of;
  let first = ref 0 in
  let members =
    Array.map
      (fun size ->
        let m = Array.sub by_pair !first size in
        first := !first + size;
        m)
      sizes
  in
  (* Instances in identity order; equal identities share one row. Which of
     two equal instances comes first decides which index a draw places, so
     this must stay the same (unstable) sort of the same keys. *)
  let order = Array.init k Fun.id in
  Array.sort (fun a b -> compare identities.(a) identities.(b)) order;
  let row, nrows =
    label_runs order (fun a b -> identities.(a) = identities.(b))
  in
  let row_identity = Array.make nrows 0 in
  Array.iteri (fun i r -> row_identity.(r) <- identities.(i)) row;
  let weights =
    Array.map
      (fun v ->
        Array.map
          (fun m ->
            let p, q = positions.(m.(0)) in
            let w = weight ~v ~p ~q in
            if w < 0.0 || not (Float.is_finite w) then
              invalid_arg "Placement.build: weights must be nonnegative";
            w)
          members)
      row_identity
  in
  let states =
    Array.fold_left
      (fun acc size ->
        if acc > max_int / (size + 1) then max_int else acc * (size + 1))
      1 sizes
  in
  { order; row; class_of; members; weights; states }

let dp_states t = t.states

let dense t =
  Array.map
    (fun r ->
      let w = t.weights.(r) in
      Array.map (fun c -> w.(c)) t.class_of)
    t.row

let sample_exact ?(max_states = 1_000_000) prng t =
  if t.states > max_states then
    invalid_arg "Placement.sample_exact: state space too large";
  Cc_obs.Metrics.incr "placement.exact_calls";
  let k = Array.length t.order in
  let args =
    if Cc_obs.Trace.enabled () then [ ("k", string_of_int k) ] else []
  in
  Cc_obs.Trace.with_span "placement.exact" ~args @@ fun () ->
  let tcount = Array.length t.members in
  let capacities = Array.map Array.length t.members in
  let log_w =
    Array.map
      (Array.map (fun w -> if w = 0.0 then neg_infinity else Float.log w))
      t.weights
  in
  (* Mixed-radix code of a capacity vector: s = sum_c caps.(c) * radix.(c).
     The layer is implied: u = k - sum caps instances are already placed. *)
  let radix = Array.make tcount 1 in
  for c = 1 to tcount - 1 do
    radix.(c) <- radix.(c - 1) * (capacities.(c - 1) + 1)
  done;
  (* z.(s): log total weight of the completions placing instances
     order.(u..) into the capacities coded by s. Removing one unit of class c
     gives the smaller code s - radix.(c), so one upward pass fills z. Each
     state takes its max, then its exp-sum, over classes in descending
     index: the order of the memoised reference in the tests, which keeps
     every value, and so every draw, bit-identical to it. *)
  let z = Array.make t.states 0.0 in
  let caps = Array.make tcount 0 and placed = ref k in
  let xs = Array.make tcount neg_infinity in
  for s = 1 to t.states - 1 do
    (* Advance the digit counter from s - 1 to s. *)
    let c = ref 0 in
    while caps.(!c) = capacities.(!c) do
      caps.(!c) <- 0;
      placed := !placed + capacities.(!c);
      incr c
    done;
    caps.(!c) <- caps.(!c) + 1;
    decr placed;
    let lw = log_w.(t.row.(t.order.(!placed))) in
    let m = ref neg_infinity in
    for c = tcount - 1 downto 0 do
      if caps.(c) > 0 then begin
        xs.(c) <- lw.(c) +. z.(s - radix.(c));
        m := Float.max !m xs.(c)
      end
    done;
    let m = !m in
    if m = neg_infinity then z.(s) <- neg_infinity
    else begin
      let acc = ref 0.0 in
      for c = tcount - 1 downto 0 do
        if caps.(c) > 0 then acc := !acc +. Float.exp (xs.(c) -. m)
      done;
      z.(s) <- m +. Float.log !acc
    end
  done;
  let s = ref (t.states - 1) in
  if z.(!s) = neg_infinity then failwith "Placement.sample_exact: infeasible";
  (* Forward sampling of a position class per instance. *)
  let caps = Array.copy capacities in
  let chosen_class = Array.make k (-1) in
  let probs = Array.make tcount 0.0 in
  for u = 0 to k - 1 do
    let inst = t.order.(u) in
    let lw = log_w.(t.row.(inst)) in
    for c = 0 to tcount - 1 do
      xs.(c) <-
        (if caps.(c) > 0 then lw.(c) +. z.(!s - radix.(c)) else neg_infinity)
    done;
    let m = Array.fold_left Float.max neg_infinity xs in
    for c = 0 to tcount - 1 do
      probs.(c) <-
        (if xs.(c) = neg_infinity then 0.0 else Float.exp (xs.(c) -. m))
    done;
    let c = Cc_util.Dist.sample_weights probs prng in
    chosen_class.(inst) <- c;
    caps.(c) <- caps.(c) - 1;
    s := !s - radix.(c)
  done;
  (* Uniformly assign the instances of each class to its labeled positions:
     bucket the instances by class in index order, then shuffle each class's
     positions. *)
  let start = Array.make (tcount + 1) 0 in
  for c = 0 to tcount - 1 do
    start.(c + 1) <- start.(c) + capacities.(c)
  done;
  let bucket = Array.make k 0 and next = Array.sub start 0 tcount in
  for i = 0 to k - 1 do
    let c = chosen_class.(i) in
    bucket.(next.(c)) <- i;
    next.(c) <- next.(c) + 1
  done;
  let sigma = Array.make k (-1) in
  Array.iteri
    (fun c members ->
      let member_arr = Array.copy members in
      Prng.shuffle prng member_arr;
      Array.iteri
        (fun idx pos -> sigma.(pos) <- bucket.(start.(c) + idx))
        member_arr)
    t.members;
  sigma
