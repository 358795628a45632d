(* [Phase_walk.run] as it filled walks before its level loop was rewritten
   to cost its arithmetic: each pair class's Formula 1 law built through
   [Mat.get] and its cumulative law, its midpoints drawn by inverse CDF,
   pair classes indexed by [index_pairs], and every probe of Algorithm 3's
   binary search rescanning its prefix. It is kept verbatim minus its log
   line, metrics and trace spans, takes the caller's power table and books
   it as the library does, and places midpoints as the library's level loop
   does ([place]), so a property in test_sampler pins [Phase_walk.run] to
   it: the same walk and stats, the same booked events and the same PRNG
   state afterwards. Its one addition is the mixed-level rule, spelled out
   here on its own: a level whose half-gap matrix is physically the
   table's mixed matrix draws every class's midpoints from row 0 of that
   matrix, read through [Mat.get], and keeps them in the magical order.
   Test-only: nothing in lib/ calls this module. *)

module Net = Cc_clique.Net
module Matmul = Cc_clique.Matmul
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Phase_walk = Cc_sampler.Phase_walk
module Placement = Cc_matching.Placement

let max_materialized = 2_000_000

(* Mutable counters threaded through a run. *)
type counters = {
  mutable c_checks : int;
  mutable c_midpoints : int;
  mutable c_exact : int;
  mutable c_magical : int;
  mutable c_mixed : int;
}

(* Pair-class bookkeeping for one level: walk.(i), walk.(i+1) for
   i = 0..len-2 are the (start,end) pairs. *)
type level_pairs = {
  classes : (int * int) array; (* class index -> (p, q) *)
  class_of : int array; (* pair position i -> class index *)
  rank : int array; (* pair position i -> occurrence rank within its class *)
  counts : int array; (* class index -> total occurrences *)
}

(* Classes are numbered in order of first appearance. [table] maps the pair
   code p * width + q to its class and is all -1 between calls. *)
let index_pairs table ~width walk =
  let l = Array.length walk - 1 in
  let class_of = Array.make l 0 and rank = Array.make l 0 in
  let counts = Array.make l 0 and classes = ref [] and nclasses = ref 0 in
  for i = 0 to l - 1 do
    let key = (walk.(i) * width) + walk.(i + 1) in
    if table.(key) < 0 then begin
      table.(key) <- !nclasses;
      classes := (walk.(i), walk.(i + 1)) :: !classes;
      incr nclasses
    end;
    let k = table.(key) in
    class_of.(i) <- k;
    rank.(i) <- counts.(k);
    counts.(k) <- counts.(k) + 1
  done;
  let classes = Array.of_list (List.rev !classes) in
  Array.iter (fun (p, q) -> table.((p * width) + q) <- -1) classes;
  { classes; class_of; rank; counts = Array.sub counts 0 !nclasses }

(* Midpoint Placement: the exact DP on the cheaper margin with at most
   50,000 states, else the magical order itself with nothing drawn. It
   returns the midpoint at each position, and [true] if the DP drew them. *)
let dp_max_states = 50_000

let place prng ~identities ~positions ~weight =
  let instance = Placement.build ~identities ~positions ~weight in
  match Placement.cheaper ~max_states:dp_max_states instance with
  | Some margin ->
      let sigma =
        Placement.sample_exact ~max_states:dp_max_states ~margin prng instance
      in
      (Array.map (fun i -> identities.(i)) sigma, true)
  | None -> (identities, false)

(* Book a routed pattern given per-machine word loads (avoids materializing
   huge packet lists for dense request patterns). *)
let book_loads net ~label ~sent ~recv =
  let n = Net.n net in
  let load = ref 0 in
  for i = 0 to n - 1 do
    load := max !load (max sent.(i) recv.(i))
  done;
  if !load > 0 then Net.charge net ~label (Float.of_int ((!load + n - 1) / n))

let run net prng ~backend ~(table : Cc_walks.Topdown.table) ~machine_of
    ~start ~rho ~target_len ~matching =
  let powers = table.powers in
  if rho < 2 then invalid_arg "Phase_walk.run: rho < 2";
  if target_len < 2 then invalid_arg "Phase_walk.run: target_len < 2";
  let levels = Cc_walks.Topdown.levels_for ~len:target_len in
  if Array.length powers <> levels + 1 then
    invalid_arg "Phase_walk.run: power table length is not levels + 1";
  let s_count = Mat.rows powers.(0) in
  if Mat.cols powers.(0) <> s_count then
    invalid_arg "Phase_walk.run: power table not square";
  if start < 0 || start >= s_count then invalid_arg "Phase_walk.run: bad start";
  let n = Net.n net in
  let ew = Net.entry_words net in
  let counters =
    { c_checks = 0; c_midpoints = 0; c_exact = 0; c_magical = 0; c_mixed = 0 }
  in
  (* Initialization Step (Algorithm 1): book the caller's power table, then
     draw the endpoint. *)
  Matmul.book_power_table net backend ~dim:s_count ~levels;
  let leader = machine_of start in
  let degenerate () =
    failwith
      "Phase_walk: truncated transition probabilities degenerated to zero \
       (fractional bits far below the Lemma 3 budget)"
  in
  let endpoint =
    try Dist.sample_weights (Mat.row powers.(levels) start) prng
    with Invalid_argument _ -> degenerate ()
  in
  Net.charge net ~label:"init endpoint" 1.0;

  (* Scratch shared by every level. Per-machine loads are cleared before
     each booking; the vertex sets are cleared in O(1) by taking a fresh
     stamp, which the marks of every earlier set differ from. *)
  let sent = Array.make n 0 and recv = Array.make n 0 in
  let clear_loads () =
    Array.fill sent 0 n 0;
    Array.fill recv 0 n 0
  in
  let pair_table = Array.make (s_count * s_count) (-1) in
  let stamp = ref 0 in
  let fresh () =
    incr stamp;
    !stamp
  in
  let in_prefix = Array.make s_count 0 and prefix_count = Array.make s_count 0 in
  let prefix_vertices = Array.make s_count 0 in
  let seen = Array.make s_count 0 in
  (* One level: walk with entries spaced 2^gap apart -> entries spaced
     2^(gap-1), truncated at the rho-th distinct vertex. *)
  let level walk gap =
    let half = powers.(gap - 1) in
    let mixed =
      table.mixed < Array.length powers && half == powers.(table.mixed)
    in
    let l = Array.length walk - 1 in
    let pairs = index_pairs pair_table ~width:s_count walk in
    let nclasses = Array.length pairs.classes in
    let pair_machine k = k mod n in
    (* --- Algorithm 2: midpoint requests + distribution acquisition. --- *)
    (* M sends each pair machine its count (O(1) words each). *)
    clear_loads ();
    sent.(leader) <- 3 * nclasses;
    for k = 0 to nclasses - 1 do
      recv.(pair_machine k) <- recv.(pair_machine k) + 3
    done;
    book_loads net ~label:"midpoint counts" ~sent ~recv;
    (* Every machine j sends each pair machine its Formula 1 factor. *)
    clear_loads ();
    for j = 0 to s_count - 1 do
      sent.(machine_of j) <- sent.(machine_of j) + (nclasses * ew)
    done;
    for k = 0 to nclasses - 1 do
      recv.(pair_machine k) <- recv.(pair_machine k) + (s_count * ew)
    done;
    book_loads net ~label:"midpoint distributions" ~sent ~recv;
    (* Pair machines sample their midpoint sequences Pi_{p,q}, at a mixed
       level all from row 0 of [half]. *)
    let pi =
      Array.init nclasses (fun k ->
          let p, q = pairs.classes.(k) in
          let weights =
            Array.init s_count (fun j ->
                if mixed then Mat.get half 0 j
                else Mat.get half p j *. Mat.get half j q)
          in
          (try Dist.cdf_in_place weights
           with Invalid_argument _ -> degenerate ());
          Array.init pairs.counts.(k) (fun _ ->
              Dist.search weights (Prng.float prng 1.0)))
    in
    (* The "magical" filled walk: position 2i is walk.(i), position 2i+1 is
       pi.(class).(rank). Used only as the machines would: for Check queries,
       the final midpoint, and the multiset. *)
    let magical pos =
      if pos land 1 = 0 then walk.(pos / 2)
      else
        let i = (pos - 1) / 2 in
        pi.(pairs.class_of.(i)).(pairs.rank.(i))
    in
    let c = Array.make nclasses 0 in
    (* --- Algorithm 3: Check(l') — is l' <= t? --- *)
    let check l' =
      counters.c_checks <- counters.c_checks + 1;
      clear_loads ();
      (* Step 1: M sends c_{p,q}(l') to pair machines. *)
      sent.(leader) <- nclasses;
      for k = 0 to nclasses - 1 do
        recv.(pair_machine k) <- recv.(pair_machine k) + 1
      done;
      (* Prefix counts per class: midpoints at odd positions <= l'. (Guard
         l' = 0 explicitly: OCaml truncates (-1)/2 to 0, which would wrongly
         count pair 0.) *)
      Array.fill c 0 nclasses 0;
      let i_max_mid = if l' < 1 then -1 else min (l - 1) ((l' - 1) / 2) in
      for i = 0 to i_max_mid do
        c.(pairs.class_of.(i)) <- c.(pairs.class_of.(i)) + 1
      done;
      (* Step 2: a(p,q,v,l') flows to machine v, once per distinct (class,
         v); step 3: the per-vertex sums flow to M. *)
      let prefix = fresh () and distinct = ref 0 in
      for k = 0 to nclasses - 1 do
        let in_class = fresh () in
        for r = 0 to c.(k) - 1 do
          let v = pi.(k).(r) in
          if in_prefix.(v) <> prefix then begin
            in_prefix.(v) <- prefix;
            prefix_count.(v) <- 0;
            prefix_vertices.(!distinct) <- v;
            incr distinct
          end;
          prefix_count.(v) <- prefix_count.(v) + 1;
          if seen.(v) <> in_class then begin
            seen.(v) <- in_class;
            sent.(pair_machine k) <- sent.(pair_machine k) + 2;
            recv.(machine_of v) <- recv.(machine_of v) + 2
          end
        done
      done;
      for x = 0 to !distinct - 1 do
        let v = prefix_vertices.(x) in
        sent.(machine_of v) <- sent.(machine_of v) + 2;
        recv.(leader) <- recv.(leader) + 2
      done;
      (* m(l') query. *)
      sent.(leader) <- sent.(leader) + 2;
      recv.(leader) <- recv.(leader) + 2;
      book_loads net ~label:"binary-search check" ~sent ~recv;
      (* Step 4: d = distinct vertices in the prefix. *)
      for i = 0 to l' / 2 do
        let v = walk.(i) in
        if in_prefix.(v) <> prefix then begin
          in_prefix.(v) <- prefix;
          prefix_count.(v) <- 0;
          incr distinct
        end
      done;
      if !distinct > rho then false
      else begin
        (* Step 6: o = occurrences of m(l') in the prefix. *)
        let v = magical l' in
        let o = ref (if in_prefix.(v) = prefix then prefix_count.(v) else 0) in
        for i = 0 to l' / 2 do
          if walk.(i) = v then incr o
        done;
        !distinct < rho || !o = 1
      end
    in
    (* Binary search for the largest l' with Check(l') = true. Check 0 is
       trivially true (one distinct vertex, rho >= 2). *)
    let search () =
      let lo = ref 0 and hi = ref (2 * l) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if check mid then lo := mid else hi := mid - 1
      done;
      !lo
    in
    let t = search () in
    (* --- Midpoint Placement. --- *)
    let new_walk = Array.make (t + 1) (-1) in
    let n_even = (t / 2) + 1 in
    for i = 0 to n_even - 1 do
      new_walk.(2 * i) <- walk.(i)
    done;
    let final_is_midpoint = t land 1 = 1 in
    if final_is_midpoint then begin
      (* The final midpoint is queried and placed exactly. *)
      new_walk.(t) <- magical t;
      Net.charge net ~label:"final midpoint query" 1.0
    end;
    (* Positions to fill by matching: the odd positions 2j+1 strictly below
       t, i.e. the midpoints of pairs j < t/2. *)
    let k_match = t / 2 in
    counters.c_midpoints <- counters.c_midpoints + k_match + (if final_is_midpoint then 1 else 0);
    if k_match > 0 then begin
      (* M receives the multiset (2 words per distinct identity, combinable)
         and the P^(gap-1) submatrix on the involved vertices (O(n) words). *)
      let involved_set = fresh () and involved = ref [] and sub = ref 0 in
      for pos = 0 to t do
        let v = magical pos in
        if seen.(v) <> involved_set then begin
          seen.(v) <- involved_set;
          involved := v :: !involved;
          incr sub
        end
      done;
      let words = (!sub * ew) + 2 in
      Net.exchange net ~label:"multiset+submatrix gather"
        (List.map (fun v -> { Net.src = machine_of v; dst = leader; words }) !involved);
      (* The midpoints in their magical order, one per position. *)
      let midpoints = Array.init k_match (fun j -> magical ((2 * j) + 1)) in
      let placed =
        match matching with
        | Phase_walk.Magical -> midpoints
        | Phase_walk.Resample when mixed ->
            counters.c_mixed <- counters.c_mixed + 1;
            midpoints
        | Phase_walk.Resample ->
            let positions =
              Array.init k_match (fun j -> (walk.(j), walk.(j + 1)))
            in
            let placed, exact =
              place prng ~identities:midpoints ~positions
                ~weight:(fun ~v ~p ~q -> Mat.get half p v *. Mat.get half v q)
            in
            if exact then counters.c_exact <- counters.c_exact + 1
            else counters.c_magical <- counters.c_magical + 1;
            placed
      in
      Array.iteri (fun j v -> new_walk.((2 * j) + 1) <- v) placed
    end;
    new_walk
  in
  let walk = ref [| start; endpoint |] in
  for gap = levels downto 1 do
    if Array.length !walk > max_materialized then
      failwith "Phase_walk.run: materialized walk exceeds cap";
    walk := level !walk gap
  done;
  ( !walk,
    {
      Phase_walk.levels;
      checks = counters.c_checks;
      midpoints_placed = counters.c_midpoints;
      matchings_exact = counters.c_exact;
      matchings_mcmc = counters.c_magical;
      placements_mixed = counters.c_mixed;
    } )
