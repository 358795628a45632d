module Net = Cc_clique.Net
module Matmul = Cc_clique.Matmul
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Placement = Cc_matching.Placement

let log_src = Logs.Src.create "cc.phase_walk" ~doc:"per-level walk filling"

module Log = (val Logs.src_log log_src : Logs.LOG)

type matching_mode = Resample | Magical

type stats = {
  levels : int;
  checks : int;
  midpoints_placed : int;
  matchings_exact : int;
  matchings_mcmc : int;
}

let max_materialized = 2_000_000

(* Mutable counters threaded through a run. *)
type counters = {
  mutable c_checks : int;
  mutable c_midpoints : int;
  mutable c_exact : int;
  mutable c_magical : int;
}

(* Pair classes of one level, numbered in order of first appearance: pair
   i is (walk.(i), walk.(i + 1)), [first.(k)] is class k's first pair and
   [next.(i)] the next pair of pair i's class, -1 after its last. [table]
   maps the pair code p * width + q to its class and is all -1 between
   calls. Returns the number of classes, [first] and [next]. *)
let index_pairs table ~width walk =
  let l = Array.length walk - 1 in
  let first = Array.make l 0 and last = Array.make l 0 in
  let next = Array.make l (-1) and nclasses = ref 0 in
  for i = 0 to l - 1 do
    let key = (walk.(i) * width) + walk.(i + 1) in
    let k = table.(key) in
    if k < 0 then begin
      table.(key) <- !nclasses;
      first.(!nclasses) <- i;
      last.(!nclasses) <- i;
      incr nclasses
    end
    else begin
      next.(last.(k)) <- i;
      last.(k) <- i
    end
  done;
  for k = 0 to !nclasses - 1 do
    let i = first.(k) in
    table.((walk.(i) * width) + walk.(i + 1)) <- -1
  done;
  (!nclasses, first, next)

(* [max] specialised to ints: the polymorphic one calls the generic
   comparison. *)
let imax (a : int) b = if a >= b then a else b

(* Charge a routed pattern by its busiest machine's word load. *)
let charge_load net ~label load =
  let n = Net.n net in
  if load > 0 then Net.charge net ~label (Float.of_int ((load + n - 1) / n))

(* Book a routed pattern given per-machine word loads (avoids materializing
   huge packet lists for dense request patterns). *)
let book_loads net ~label ~sent ~recv =
  let load = ref 0 in
  for i = 0 to Net.n net - 1 do
    load := imax !load (imax sent.(i) recv.(i))
  done;
  charge_load net ~label !load

(* A margin of the placement DP is eligible only while it has at most this
   many states: about 400 KB of log-Z. States >= k + 1, so this bounds k. *)
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

let run net prng ~backend ?bits ?powers_slot ~trans ~machine_of ~start ~rho
    ~target_len ~matching () =
  let s_count = Mat.rows trans in
  if Mat.cols trans <> s_count then invalid_arg "Phase_walk.run: trans not square";
  if rho < 2 then invalid_arg "Phase_walk.run: rho < 2";
  if target_len < 2 then invalid_arg "Phase_walk.run: target_len < 2";
  if start < 0 || start >= s_count then invalid_arg "Phase_walk.run: bad start";
  let n = Net.n net in
  let ew = Net.entry_words net in
  let levels = Cc_walks.Topdown.levels_for ~len:target_len in
  let counters = { c_checks = 0; c_midpoints = 0; c_exact = 0; c_magical = 0 } in
  (* Initialization Step (Algorithm 1): distributed power table + endpoint.
     When the caller passes a plan's [powers_slot], a filled slot replays the
     table's bookings without recomputing it, and an empty slot is filled for
     the next draw; either way the net sees the same events. *)
  let powers =
    match powers_slot with
    | Some ({ contents = Some cached } as _slot) ->
        Matmul.power_table net backend ?bits ~reuse:cached trans ~levels
    | Some ({ contents = None } as slot) ->
        let t = Matmul.power_table net backend ?bits trans ~levels in
        slot := Some t;
        t
    | None -> Matmul.power_table net backend ?bits trans ~levels
  in
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
     stamp, which the marks of every earlier set differ from. [law] holds
     one pair class's Formula 1 law at a time. *)
  let sent = Array.make n 0 and recv = Array.make n 0 in
  let clear_loads () =
    Array.fill sent 0 n 0;
    Array.fill recv 0 n 0
  in
  let machine = Array.init s_count machine_of in
  let pair_table = Array.make (s_count * s_count) (-1) in
  let stamp = ref 0 in
  let fresh () =
    incr stamp;
    !stamp
  in
  let seen = Array.make s_count 0 in
  let law = Array.make s_count 0.0 in
  (* One level: walk with entries spaced 2^gap apart -> entries spaced
     2^(gap-1), truncated at the rho-th distinct vertex. *)
  let level walk gap =
    let half = powers.(gap - 1) in
    let l = Array.length walk - 1 in
    let nclasses, first, next = index_pairs pair_table ~width:s_count walk in
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
      sent.(machine.(j)) <- sent.(machine.(j)) + (nclasses * ew)
    done;
    for k = 0 to nclasses - 1 do
      recv.(pair_machine k) <- recv.(pair_machine k) + (s_count * ew)
    done;
    book_loads net ~label:"midpoint distributions" ~sent ~recv;
    (* Pair machines sample their midpoint sequences Pi_{p,q}, class by
       class, each class's draws going to its pairs in order. The "magical"
       filled walk holds them: position 2i is walk.(i), position 2i+1 the
       midpoint drawn for pair i. The machines use it only as they would:
       for Check queries, the final midpoint, and the multiset.
       [new_in_class.(i)] is the pair machine of pair i's class when its
       midpoint is the class's first draw of that vertex, -1 otherwise. *)
    let magical = Array.make ((2 * l) + 1) 0 in
    for i = 0 to l do
      magical.(2 * i) <- walk.(i)
    done;
    let new_in_class = Array.make l (-1) in
    for k = 0 to nclasses - 1 do
      let i = ref first.(k) in
      Mat.two_step_into half ~p:walk.(!i) ~q:walk.(!i + 1) law;
      (try Dist.cdf_in_place law with Invalid_argument _ -> degenerate ());
      let in_class = fresh () in
      while !i >= 0 do
        let v = Dist.search law (Prng.float prng 1.0) in
        magical.((2 * !i) + 1) <- v;
        if seen.(v) <> in_class then begin
          seen.(v) <- in_class;
          new_in_class.(!i) <- pair_machine k
        end;
        i := next.(!i)
      done
    done;
    (* [distinct.(pos)] is the number of distinct vertices at positions
       0..pos of the magical walk; position pos holds the first occurrence
       of its vertex iff the count rose there. *)
    let distinct = Array.make ((2 * l) + 1) 0 in
    let walk_set = fresh () and d = ref 0 in
    for pos = 0 to 2 * l do
      let v = magical.(pos) in
      if seen.(v) <> walk_set then begin
        seen.(v) <- walk_set;
        incr d
      end;
      distinct.(pos) <- !d
    done;
    let first_at pos = pos = 0 || distinct.(pos) > distinct.(pos - 1) in
    (* --- Algorithm 3: Check(l') — is l' <= t? --- *)
    let search () =
      (* A probe's booking: M sends c_{p,q}(l') to every pair machine; each
         distinct (class, v) among the midpoints at odd positions <= l'
         sends a(p,q,v,l') from its pair machine to machine v; each distinct
         midpoint vertex sends its sum to M; and M queries m(l'). Every
         per-machine sum only grows with the prefix, so the busiest
         machine's load after c midpoints, [loads.(c)], is the running
         maximum of every sum so far: one sweep over the pairs. *)
      let loads = Array.make (l + 1) 0 in
      clear_loads ();
      sent.(leader) <- nclasses + 2;
      recv.(leader) <- 2;
      for k = 0 to nclasses - 1 do
        recv.(pair_machine k) <- recv.(pair_machine k) + 1
      done;
      let load = ref 0 in
      for m = 0 to n - 1 do
        load := imax !load (imax sent.(m) recv.(m))
      done;
      loads.(0) <- !load;
      let midpoint_set = fresh () in
      for i = 0 to l - 1 do
        let v = magical.((2 * i) + 1) in
        let src = new_in_class.(i) in
        if src >= 0 then begin
          let dst = machine.(v) in
          sent.(src) <- sent.(src) + 2;
          recv.(dst) <- recv.(dst) + 2;
          load := imax !load (imax sent.(src) recv.(dst))
        end;
        if seen.(v) <> midpoint_set then begin
          seen.(v) <- midpoint_set;
          let src = machine.(v) in
          sent.(src) <- sent.(src) + 2;
          recv.(leader) <- recv.(leader) + 2;
          load := imax !load (imax sent.(src) recv.(leader))
        end;
        loads.(i + 1) <- !load
      done;
      (* Check(l'): at most rho distinct vertices up to l', and fewer than
         rho unless m(l') occurs there first (its occurrence count is 1). *)
      let check l' =
        counters.c_checks <- counters.c_checks + 1;
        charge_load net ~label:"binary-search check" loads.((l' + 1) / 2);
        let d = distinct.(l') in
        d <= rho && (d < rho || first_at l')
      in
      (* Binary search for the largest l' with Check(l') = true. Check 0 is
         trivially true (one distinct vertex, rho >= 2). *)
      let lo = ref 0 and hi = ref (2 * l) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if check mid then lo := mid else hi := mid - 1
      done;
      !lo
    in
    let t = Cc_obs.Trace.with_span "phase_walk.search" search in
    (* --- Midpoint Placement. --- *)
    let new_walk = Array.sub magical 0 (t + 1) in
    let final_is_midpoint = t land 1 = 1 in
    (* The final midpoint is queried and placed exactly. *)
    if final_is_midpoint then Net.charge net ~label:"final midpoint query" 1.0;
    (* Positions to fill by matching: the odd positions 2j+1 strictly below
       t, i.e. the midpoints of pairs j < t/2. *)
    let k_match = t / 2 in
    counters.c_midpoints <- counters.c_midpoints + k_match + (if final_is_midpoint then 1 else 0);
    if k_match > 0 then begin
      (* M receives the multiset (2 words per distinct identity, combinable)
         and the P^(gap-1) submatrix on the involved vertices (O(n) words),
         one packet per distinct vertex, latest first occurrence first. *)
      let words = (distinct.(t) * ew) + 2 and packets = ref [] in
      for pos = 0 to t do
        if first_at pos then
          packets := { Net.src = machine.(magical.(pos)); dst = leader; words } :: !packets
      done;
      Net.exchange net ~label:"multiset+submatrix gather" !packets;
      match matching with
      | Magical -> ()
      | Resample ->
          (* The midpoints in their magical order, one per position. *)
          let midpoints = Array.init k_match (fun j -> magical.((2 * j) + 1)) in
          let positions = Array.init k_match (fun j -> (walk.(j), walk.(j + 1))) in
          let placed, exact =
            place prng ~identities:midpoints ~positions
              ~weight:(fun ~v ~p ~q -> Mat.two_step half p v q)
          in
          if exact then counters.c_exact <- counters.c_exact + 1
          else counters.c_magical <- counters.c_magical + 1;
          Array.iteri (fun j v -> new_walk.((2 * j) + 1) <- v) placed
    end;
    new_walk
  in
  let walk = ref [| start; endpoint |] in
  for gap = levels downto 1 do
    if Array.length !walk > max_materialized then
      failwith "Phase_walk.run: materialized walk exceeds cap";
    Log.debug (fun m -> m "level gap=2^%d, %d entries" gap (Array.length !walk));
    let args =
      if Cc_obs.Trace.enabled () then
        [
          ("gap", string_of_int gap);
          ("entries", string_of_int (Array.length !walk));
        ]
      else []
    in
    Cc_obs.Trace.with_span "phase_walk.level" ~args (fun () ->
        walk := level !walk gap)
  done;
  Cc_obs.Metrics.incr ~by:counters.c_checks "phase_walk.checks";
  Cc_obs.Metrics.incr ~by:counters.c_midpoints "phase_walk.midpoints";
  Cc_obs.Metrics.incr ~by:counters.c_exact "phase_walk.matchings_exact";
  Cc_obs.Metrics.incr ~by:counters.c_magical "phase_walk.matchings_mcmc";
  ( !walk,
    {
      levels;
      checks = counters.c_checks;
      midpoints_placed = counters.c_midpoints;
      matchings_exact = counters.c_exact;
      matchings_mcmc = counters.c_magical;
    } )
