module Graph = Cc_graph.Graph
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Mat = Cc_linalg.Mat

type partial_walk = { gap_exp : int; verts : int array }

let levels_for ~len =
  if len <= 0 then invalid_arg "Topdown.levels_for: len <= 0";
  let rec go exp cap = if cap >= len then exp else go (exp + 1) (cap * 2) in
  go 0 1

let midpoint_weights powers ~gap_exp ~a ~b =
  if gap_exp < 1 || gap_exp > Array.length powers - 1 then
    invalid_arg "Topdown.midpoint_weights: gap_exp out of range";
  let half = powers.(gap_exp - 1) in
  let weights = Array.make (Mat.rows half) 0.0 in
  Mat.two_step_into half ~p:a ~q:b weights;
  weights

let initial_walk prng powers ~start ~levels =
  if levels < 0 || levels > Array.length powers - 1 then
    invalid_arg "Topdown.initial_walk: levels out of range";
  let endpoint = Dist.sample_weights (Mat.row powers.(levels) start) prng in
  { gap_exp = levels; verts = [| start; endpoint |] }

let fill_level prng powers w =
  if w.gap_exp = 0 then invalid_arg "Topdown.fill_level: walk already complete";
  let len = Array.length w.verts in
  let out = Array.make ((2 * len) - 1) 0 in
  for i = 0 to len - 1 do
    out.(2 * i) <- w.verts.(i)
  done;
  for i = 0 to len - 2 do
    let a = w.verts.(i) and b = w.verts.(i + 1) in
    let weights = midpoint_weights powers ~gap_exp:w.gap_exp ~a ~b in
    out.((2 * i) + 1) <- Dist.sample_weights weights prng
  done;
  { gap_exp = w.gap_exp - 1; verts = out }

let fill_level_truncated prng powers w ~rho =
  let filled = fill_level prng powers w in
  { filled with verts = Walk.truncate_at_distinct filled.verts ~rho }

let power_table_for g ~levels =
  Mat.power_table (Graph.transition_matrix g) ~max_exp:levels

let sample_walk g prng ~start ~len =
  if len <= 0 || len land (len - 1) <> 0 then
    invalid_arg "Topdown.sample_walk: len must be a positive power of two";
  let levels = levels_for ~len in
  let powers = power_table_for g ~levels in
  let rec go w = if w.gap_exp = 0 then w.verts else go (fill_level prng powers w) in
  go (initial_walk prng powers ~start ~levels)

let sample_truncated_matrix prng ~trans ~start ~target_len ~rho ?powers
    ?(max_material = 4_000_000) () =
  if target_len <= 0 then
    invalid_arg "Topdown.sample_truncated_matrix: target_len <= 0";
  let levels = levels_for ~len:target_len in
  let powers =
    match powers with
    | Some p ->
        if Array.length p < levels + 1 then
          invalid_arg "Topdown.sample_truncated_matrix: powers table too short";
        p
    | None -> Mat.power_table trans ~max_exp:levels
  in
  let rec go w =
    if Array.length w.verts > max_material then
      failwith "Topdown.sample_truncated: materialized walk exceeds cap";
    if w.gap_exp = 0 then w.verts
    else go (fill_level_truncated prng powers w ~rho)
  in
  go (initial_walk prng powers ~start ~levels)

let sample_truncated g prng ~start ~target_len ~rho ?max_material () =
  sample_truncated_matrix prng ~trans:(Graph.transition_matrix g) ~start
    ~target_len ~rho ?max_material ()
