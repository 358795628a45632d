(* The test references of cc_matching. Test-only: nothing in lib/ calls
   this module.

   - [dense], [Permanent] and [Sampler]: the k×k weight matrix of a
     placement instance, its permanent by Ryser's formula, and the generic
     samplers of perfect matchings proportional to weight over that matrix —
     the exact JVV self-reduction driven by Ryser permanents (zero TV error,
     feasible to k ≈ 15), and a Metropolis transposition chain whose
     stationary law is the same. The placement DP is judged against them.
   - The top level: the memoised recursion that [Placement.sample_exact] used
     before its bottom-up pass, kept verbatim over the dense instance (minus
     its metrics counter and trace span), so a property pins the class
     margin to it sample for sample.

   A matching over k instances and k positions is an [int array] [sigma]
   with [sigma.(j)] the instance placed at position [j]; weights are
   row-major, [w.(instance).(position)], and nonnegative. *)

module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Placement = Cc_matching.Placement

let dense t =
  let k = Placement.size t in
  Array.init k (fun i -> Array.init k (fun j -> Placement.weight t i j))

(* Permanents of nonnegative square matrices: the total weight of the
   perfect matchings of a bipartite graph (Section 2.3). Ryser's formula,
   O(2^k k), good to k ≈ 20. *)
module Permanent = struct
  let check_square w =
    let k = Array.length w in
    if k = 0 then invalid_arg "Permanent: empty matrix";
    Array.iter
      (fun row ->
        if Array.length row <> k then invalid_arg "Permanent: not square")
      w;
    k

  (* Ryser's formula with Gray-code subset enumeration:
     perm(A) = (-1)^k sum_{S subseteq [k]} (-1)^|S| prod_i sum_{j in S} a_ij. *)
  let ryser w =
    let k = check_square w in
    if k > 25 then invalid_arg "Permanent.ryser: matrix too large (k > 25)";
    let row_acc = Array.make k 0.0 in
    let total = ref 0.0 in
    let popcount = ref 0 in
    for g = 1 to (1 lsl k) - 1 do
      (* Gray code of g differs from that of g-1 in exactly bit [ctz g]. *)
      let bit = ref 0 in
      let x = ref g in
      while !x land 1 = 0 do
        incr bit;
        x := !x lsr 1
      done;
      let gray_prev = (g - 1) lxor ((g - 1) lsr 1) in
      let added = gray_prev land (1 lsl !bit) = 0 in
      let sign = if added then 1.0 else -1.0 in
      for i = 0 to k - 1 do
        row_acc.(i) <- row_acc.(i) +. (sign *. w.(i).(!bit))
      done;
      popcount := if added then !popcount + 1 else !popcount - 1;
      let prod = Array.fold_left ( *. ) 1.0 row_acc in
      let subset_sign = if (k - !popcount) land 1 = 0 then 1.0 else -1.0 in
      total := !total +. (subset_sign *. prod)
    done;
    Float.max 0.0 !total

  let minor w ~skip_row ~skip_col =
    let k = check_square w in
    if k = 1 then invalid_arg "Permanent.minor: 1x1 matrix";
    Array.init (k - 1) (fun i ->
        let i' = if i >= skip_row then i + 1 else i in
        Array.init (k - 1) (fun j ->
            let j' = if j >= skip_col then j + 1 else j in
            w.(i').(j')))

  let matching_weight w sigma =
    let k = check_square w in
    if Array.length sigma <> k then
      invalid_arg "Permanent.matching_weight: bad assignment length";
    let acc = ref 1.0 in
    Array.iteri (fun j i -> acc := !acc *. w.(i).(j)) sigma;
    !acc
end

(* [exact] (the JVV self-reduction), [mcmc] (the transposition chain from
   [init], default a uniform permutation, rejecting zero-weight proposals),
   [sample] (exact for k <= 12, the chain above), and [exact_distribution],
   which enumerates the k! matchings of an instance with k <= 8. *)
module Sampler = struct
  type method_ = Exact | Mcmc of { steps : int } | Auto

  let check_nonnegative w =
    Array.iter
      (fun row ->
        Array.iter
          (fun x ->
            if x < 0.0 || not (Float.is_finite x) then
              invalid_arg "Matching.Sampler: weights must be nonnegative")
          row)
      w

  (* JVV self-reduction: fix positions left to right; the conditional
     probability that position j receives remaining instance i is
     w[i][j] * perm(rest without i) / perm(rest). *)
  let exact prng w =
    let k = Array.length w in
    if k > 15 then invalid_arg "Matching.Sampler.exact: k > 15";
    check_nonnegative w;
    let sigma = Array.make k (-1) in
    let current = ref w in
    (* remaining.(r) is the original instance index of row r of [current]. *)
    let remaining = ref (Array.init k (fun i -> i)) in
    for j = 0 to k - 1 do
      let rows = Array.length !current in
      let weights =
        Array.init rows (fun r ->
            if rows = 1 then (!current).(r).(0)
            else
              (!current).(r).(0)
              *. Permanent.ryser (Permanent.minor !current ~skip_row:r ~skip_col:0))
      in
      let r = Dist.sample_weights weights prng in
      sigma.(j) <- !remaining.(r);
      if rows > 1 then begin
        current := Permanent.minor !current ~skip_row:r ~skip_col:0;
        remaining :=
          Array.of_list
            (List.filteri (fun i _ -> i <> r) (Array.to_list !remaining))
      end
    done;
    sigma

  let mcmc ?init prng w ~steps =
    let k = Array.length w in
    check_nonnegative w;
    if steps < 0 then invalid_arg "Matching.Sampler.mcmc: negative steps";
    let sigma =
      match init with
      | None ->
          let sigma = Array.init k Fun.id in
          Prng.shuffle prng sigma;
          sigma
      | Some s ->
          if Array.length s <> k then
            invalid_arg "Matching.Sampler.mcmc: bad init length";
          Array.copy s
    in
    (* Feasibility is checked entrywise: the full product of k small
       probabilities underflows to 0.0 for large k even when every factor is
       positive. *)
    Array.iteri
      (fun j i ->
        if w.(i).(j) <= 0.0 then
          invalid_arg "Matching.Sampler.mcmc: initial assignment has zero weight")
      sigma;
    if k >= 2 then
      for _ = 1 to steps do
        let j1 = Prng.int prng k in
        let j2 = Prng.int prng (k - 1) in
        let j2 = if j2 >= j1 then j2 + 1 else j2 in
        let i1 = sigma.(j1) and i2 = sigma.(j2) in
        let before = w.(i1).(j1) *. w.(i2).(j2) in
        let after = w.(i1).(j2) *. w.(i2).(j1) in
        (* [before] > 0 since the current state is feasible; zero-weight
           proposals are rejected, keeping the chain on feasible matchings. *)
        if after > 0.0 && (after >= before || Prng.float prng (1.0) < after /. before)
        then begin
          sigma.(j1) <- i2;
          sigma.(j2) <- i1
        end
      done;
    sigma

  let default_mcmc_steps k =
    if k < 2 then 0
    else
      let kf = Float.of_int k in
      int_of_float (Float.ceil (40.0 *. kf *. kf *. Float.max 1.0 (Float.log kf)))

  let sample ?(method_ = Auto) prng w =
    match method_ with
    | Exact -> exact prng w
    | Mcmc { steps } -> mcmc prng w ~steps
    | Auto ->
        let k = Array.length w in
        if k <= 12 then exact prng w
        else mcmc prng w ~steps:(default_mcmc_steps k)

  let exact_distribution w =
    let k = Array.length w in
    if k > 8 then invalid_arg "Matching.Sampler.exact_distribution: k > 8";
    check_nonnegative w;
    let assignments = ref [] in
    let rec go prefix used =
      if List.length prefix = k then
        assignments := Array.of_list (List.rev prefix) :: !assignments
      else
        for i = 0 to k - 1 do
          if not used.(i) then begin
            used.(i) <- true;
            go (i :: prefix) used;
            used.(i) <- false
          end
        done
    in
    go [] (Array.make k false);
    let all = List.rev !assignments in
    let weights =
      Array.of_list (List.map (fun sigma -> Permanent.matching_weight w sigma) all)
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    (all, Array.map (fun x -> x /. total) weights)
end

(* --- The memoised placement DP --- *)

type t = {
  identities : int array;
  positions : (int * int) array;
  weights : float array array;
}

exception Too_large

let build ~identities ~positions ~weight =
  let k = Array.length identities in
  if k = 0 then invalid_arg "Placement.build: empty instance";
  if Array.length positions <> k then
    invalid_arg "Placement.build: instance/position count mismatch";
  let weights =
    Array.map
      (fun v ->
        Array.map
          (fun (p, q) ->
            let w = weight ~v ~p ~q in
            if w < 0.0 || not (Float.is_finite w) then
              invalid_arg "Placement.build: weights must be nonnegative";
            w)
          positions)
      identities
  in
  { identities; positions; weights }

(* Distinct position classes with counts and, per class, the member position
   indexes. *)
let position_classes t =
  let table = Hashtbl.create 16 in
  Array.iteri
    (fun j pq ->
      let members = try Hashtbl.find table pq with Not_found -> [] in
      Hashtbl.replace table pq (j :: members))
    t.positions;
  Hashtbl.fold (fun pq members acc -> (pq, List.rev members) :: acc) table []
  |> List.sort compare
  |> Array.of_list

let dp_states t =
  Array.fold_left
    (fun acc (_, members) -> acc * (List.length members + 1))
    1 (position_classes t)

(* log-sum-exp of a list that may contain neg_infinity. *)
let log_sum_exp xs =
  let m = List.fold_left Float.max neg_infinity xs in
  if m = neg_infinity then neg_infinity
  else
    m
    +. Float.log
         (List.fold_left (fun acc x -> acc +. Float.exp (x -. m)) 0.0 xs)

let sample_exact ?(max_states = 2_000_000) prng t =
  let classes = position_classes t in
  let tcount = Array.length classes in
  let capacities = Array.map (fun (_, members) -> List.length members) classes in
  let states = dp_states t in
  if states > max_states then raise Too_large;
  let k = Array.length t.identities in
  (* Class weight a(v, class t): all positions in a class share a weight
     column; take it from the first member. *)
  let log_class_weight =
    Array.init k (fun i ->
        Array.init tcount (fun c ->
            let _, members = classes.(c) in
            let w = t.weights.(i).(List.hd members) in
            if w = 0.0 then neg_infinity else Float.log w))
  in
  (* Process instances in identity order so memoization keys collapse for
     equal-identity runs; order does not affect correctness. *)
  let order = Array.init k (fun i -> i) in
  Array.sort (fun a b -> compare t.identities.(a) t.identities.(b)) order;
  (* Mixed-radix encoding of capacity vectors. *)
  let radix = Array.make tcount 1 in
  for c = 1 to tcount - 1 do
    radix.(c) <- radix.(c - 1) * (capacities.(c - 1) + 1)
  done;
  let encode caps =
    let acc = ref 0 in
    Array.iteri (fun c v -> acc := !acc + (v * radix.(c))) caps;
    !acc
  in
  let memo : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  (* The memo is keyed by (layer, capacity-vector); layers multiply the state
     count, so cap the total table size to bound memory, falling back to the
     MCMC sampler beyond it. *)
  let budget = ref (min (10 * max_states) 1_000_000) in
  (* logZ u caps: log total weight of completions placing instances
     order.(u..) into remaining capacities. *)
  let rec log_z u caps =
    if u = k then 0.0 (* capacities sum to zero exactly when u = k *)
    else begin
      let key = (u * states) + encode caps in
      match Hashtbl.find_opt memo key with
      | Some z -> z
      | None ->
          decr budget;
          if !budget <= 0 then raise Too_large;
          let inst = order.(u) in
          let options = ref [] in
          for c = 0 to tcount - 1 do
            if caps.(c) > 0 then begin
              caps.(c) <- caps.(c) - 1;
              options := (log_class_weight.(inst).(c) +. log_z (u + 1) caps) :: !options;
              caps.(c) <- caps.(c) + 1
            end
          done;
          let z = log_sum_exp !options in
          Hashtbl.add memo key z;
          z
    end
  in
  let caps = Array.copy capacities in
  let total = log_z 0 caps in
  if total = neg_infinity then failwith "Placement.sample_exact: infeasible";
  (* Forward sampling of a position class per instance. *)
  let chosen_class = Array.make k (-1) in
  for u = 0 to k - 1 do
    let inst = order.(u) in
    let logw = Array.make tcount neg_infinity in
    for c = 0 to tcount - 1 do
      if caps.(c) > 0 then begin
        caps.(c) <- caps.(c) - 1;
        logw.(c) <- log_class_weight.(inst).(c) +. log_z (u + 1) caps;
        caps.(c) <- caps.(c) + 1
      end
    done;
    let m = Array.fold_left Float.max neg_infinity logw in
    let probs = Array.map (fun x -> if x = neg_infinity then 0.0 else Float.exp (x -. m)) logw in
    let c = Cc_util.Dist.sample_weights probs prng in
    chosen_class.(inst) <- c;
    caps.(c) <- caps.(c) - 1
  done;
  (* Uniformly assign the instances of each class to its labeled positions. *)
  let sigma = Array.make k (-1) in
  Array.iteri
    (fun c (_, members) ->
      let insts =
        Array.of_list
          (List.filter (fun i -> chosen_class.(i) = c) (List.init k (fun i -> i)))
      in
      let member_arr = Array.of_list members in
      Prng.shuffle prng member_arr;
      Array.iteri (fun idx i -> sigma.(member_arr.(idx)) <- i) insts)
    classes;
  sigma

(* Re-raise Too_large as Invalid_argument at the documented boundary. *)
let sample_exact ?max_states prng t =
  try sample_exact ?max_states prng t
  with Too_large -> invalid_arg "Placement.sample_exact: state space too large"
