module Prng = Cc_util.Prng

(* The contingency-table form of an instance: instances sorted by identity
   ([order]), one row per distinct identity, positions grouped into classes
   of equal (p,q), and one weight per (row, class). *)
type t = {
  order : int array; (* instance indexes sorted by identity *)
  row : int array; (* instance -> its identity's row of [weights] *)
  multiplicity : int array; (* row -> its instances, a run of [order] *)
  class_of : int array; (* position -> class *)
  members : int array array; (* class -> its positions, ascending *)
  weights : float array array; (* row -> class -> weight *)
  class_states : int; (* prod over classes of (size + 1), saturated *)
  row_states : int; (* prod over rows of (multiplicity + 1), saturated *)
}

type margin = Classes | Rows

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

(* [count labels n] is how many of [labels] carry each of the labels 0..n-1. *)
let count labels n =
  let sizes = Array.make n 0 in
  Array.iter (fun x -> sizes.(x) <- sizes.(x) + 1) labels;
  sizes

(* The product of (size + 1) over [sizes], saturated at [max_int]. *)
let states sizes =
  Array.fold_left
    (fun acc size ->
      if acc > max_int / (size + 1) then max_int else acc * (size + 1))
    1 sizes

let build ~identities ~positions ~weight =
  let k = Array.length identities in
  if k = 0 then invalid_arg "Placement.build: empty instance";
  if Array.length positions <> k then
    invalid_arg "Placement.build: instance/position count mismatch";
  (* Position classes in ascending (p,q) order, members in ascending index.
     The pairs are compared field by field as ints: the order of the
     polymorphic [compare] on the tuples, without its C call. *)
  let by_pair = Array.init k Fun.id in
  Array.stable_sort
    (fun a b ->
      let p, q = positions.(a) and p', q' = positions.(b) in
      if p <> p' then compare (p : int) p' else compare (q : int) q')
    by_pair;
  let class_of, nclasses =
    label_runs by_pair (fun a b ->
        let p, q = positions.(a) and p', q' = positions.(b) in
        p = p' && q = q')
  in
  let sizes = count class_of nclasses in
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
  let multiplicity = count row nrows in
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
  {
    order;
    row;
    multiplicity;
    class_of;
    members;
    weights;
    class_states = states sizes;
    row_states = states multiplicity;
  }

let size t = Array.length t.order
let weight t i j = t.weights.(t.row.(i)).(t.class_of.(j))

let dp_states ?(margin = Classes) t =
  match margin with Classes -> t.class_states | Rows -> t.row_states

let cheaper ~max_states t =
  (* States times choices per state: what one pass of the DP visits. *)
  let cost states choices =
    if states > max_states then None
    else if states > max_int / choices then Some max_int
    else Some (states * choices)
  in
  match
    ( cost t.class_states (Array.length t.members),
      cost t.row_states (Array.length t.weights) )
  with
  | None, None -> None
  | Some c, Some r when r < c -> Some Rows
  | Some _, _ -> Some Classes
  | None, Some _ -> Some Rows

(* One margin of the table as the DP sees it: [units.(u)] is the log-weight
   row of the u-th unit to place, over the margin's choices, and choice c
   takes exactly [capacities.(c)] units. On [Classes] the units are the
   instances in identity order choosing a position class; on [Rows] they are
   the positions in class order choosing an identity. *)
let margin_table margin t =
  let log_w =
    Array.map
      (Array.map (fun w -> if w = 0.0 then neg_infinity else Float.log w))
      t.weights
  in
  match margin with
  | Classes ->
      ( Array.map (fun i -> log_w.(t.row.(i))) t.order,
        Array.map Array.length t.members,
        t.class_states )
  | Rows ->
      let by_class =
        Array.init (Array.length t.members) (fun c ->
            Array.map (fun lw -> lw.(c)) log_w)
      in
      ( Array.concat
          (Array.to_list
             (Array.mapi
                (fun c m -> Array.make (Array.length m) by_class.(c))
                t.members)),
        t.multiplicity,
        t.row_states )

(* The DP over one margin. Mixed-radix code of a capacity vector:
   s = sum_c caps.(c) * radix.(c); the layer is implied, since
   u = k - sum caps units are already placed. z.(s) is the log total weight
   of the completions placing units u.. into the capacities coded by s.
   Removing one unit of choice c gives the smaller code s - radix.(c), so one
   upward pass fills z. Each state takes its max, then its exp-sum, over
   choices in descending index: the order of the memoised reference in the
   tests, which keeps every value, and so every draw, bit-identical to it.
   A term equal to the max adds exp 0.0 = 1.0 and a term at -infinity adds
   exp -infinity = 0.0 (the max is finite there), so neither calls [exp]. *)
let log_z_table units capacities states =
  let k = Array.length units and choices = Array.length capacities in
  let radix = Array.make choices 1 in
  for c = 1 to choices - 1 do
    radix.(c) <- radix.(c - 1) * (capacities.(c - 1) + 1)
  done;
  let z = Array.make states 0.0 in
  let caps = Array.make choices 0 and placed = ref k in
  let xs = Array.make choices neg_infinity in
  for s = 1 to states - 1 do
    (* Advance the digit counter from s - 1 to s. *)
    let c = ref 0 in
    while caps.(!c) = capacities.(!c) do
      caps.(!c) <- 0;
      placed := !placed + capacities.(!c);
      incr c
    done;
    caps.(!c) <- caps.(!c) + 1;
    decr placed;
    let lw = units.(!placed) in
    let m = ref neg_infinity in
    for c = choices - 1 downto 0 do
      if caps.(c) > 0 then begin
        xs.(c) <- lw.(c) +. z.(s - radix.(c));
        m := Float.max !m xs.(c)
      end
    done;
    let m = !m in
    if m = neg_infinity then z.(s) <- neg_infinity
    else begin
      let acc = ref 0.0 in
      for c = choices - 1 downto 0 do
        if caps.(c) > 0 then begin
          let x = xs.(c) in
          if x = m then acc := !acc +. 1.0
          else if x <> neg_infinity then acc := !acc +. Float.exp (x -. m)
        end
      done;
      z.(s) <- m +. Float.log !acc
    end
  done;
  (z, radix)

(* Forward sampling: the choice of each unit in order, drawn exactly
   proportional to the product of the chosen weights. As in [log_z_table],
   a term at the max is exp 0.0 = 1.0 without the call. *)
let draw prng (units, capacities, states) =
  let z, radix = log_z_table units capacities states in
  let s = ref (states - 1) in
  if z.(!s) = neg_infinity then failwith "Placement.sample_exact: infeasible";
  let choices = Array.length capacities in
  let caps = Array.copy capacities in
  let xs = Array.make choices neg_infinity and probs = Array.make choices 0.0 in
  Array.init (Array.length units) (fun u ->
      let lw = units.(u) in
      for c = 0 to choices - 1 do
        xs.(c) <-
          (if caps.(c) > 0 then lw.(c) +. z.(!s - radix.(c)) else neg_infinity)
      done;
      let m = Array.fold_left Float.max neg_infinity xs in
      for c = 0 to choices - 1 do
        let x = xs.(c) in
        probs.(c) <-
          (if x = neg_infinity then 0.0
           else if x = m then 1.0
           else Float.exp (x -. m))
      done;
      let c = Cc_util.Dist.sample_weights probs prng in
      caps.(c) <- caps.(c) - 1;
      s := !s - radix.(c);
      c)

let log_z ?(margin = Classes) t =
  if dp_states ~margin t > 1_000_000 then
    invalid_arg "Placement.log_z: state space too large";
  let units, capacities, states = margin_table margin t in
  let z, _ = log_z_table units capacities states in
  z.(states - 1)

(* Classes: the DP gives each instance a class. Bucket the instances by
   class in index order, then give each class's instances its positions in
   a uniformly random order. *)
let place_classes prng t chosen =
  let k = Array.length t.order and tcount = Array.length t.members in
  let chosen_class = Array.make k (-1) in
  Array.iteri (fun u c -> chosen_class.(t.order.(u)) <- c) chosen;
  let start = Array.make (tcount + 1) 0 in
  for c = 0 to tcount - 1 do
    start.(c + 1) <- start.(c) + Array.length t.members.(c)
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

(* Rows: the DP gives each position, in class order, a row. Each row's
   instances (a run of [order]) go to the positions that chose it in a
   uniformly random order, so sigma keeps the exact law over bijections. *)
let place_rows prng t chosen =
  let first = ref 0 in
  let shuffled =
    Array.map
      (fun mult ->
        let insts = Array.sub t.order !first mult in
        first := !first + mult;
        Prng.shuffle prng insts;
        insts)
      t.multiplicity
  in
  let next = Array.make (Array.length t.multiplicity) 0 in
  let sigma = Array.make (Array.length t.order) (-1) in
  Array.iteri
    (fun u pos ->
      let r = chosen.(u) in
      sigma.(pos) <- shuffled.(r).(next.(r));
      next.(r) <- next.(r) + 1)
    (Array.concat (Array.to_list t.members));
  sigma

let sample_exact ?(max_states = 1_000_000) ?(margin = Classes) prng t =
  if dp_states ~margin t > max_states then
    invalid_arg "Placement.sample_exact: state space too large";
  Cc_obs.Metrics.incr "placement.exact_calls";
  let args =
    if Cc_obs.Trace.enabled () then
      [
        ("k", string_of_int (size t));
        ("margin", match margin with Classes -> "classes" | Rows -> "rows");
      ]
    else []
  in
  Cc_obs.Trace.with_span "placement.exact" ~args @@ fun () ->
  let chosen = draw prng (margin_table margin t) in
  match margin with
  | Classes -> place_classes prng t chosen
  | Rows -> place_rows prng t chosen
