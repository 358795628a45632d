module Graph = Cc_graph.Graph
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Mat = Cc_linalg.Mat

type partial_walk = { gap_exp : int; verts : int array }
type table = { powers : Mat.t array; mixed : int; shared : float array }

let table (powers, mixed) =
  match mixed with
  | None -> { powers; mixed = Array.length powers; shared = [||] }
  | Some m ->
      let shared = Mat.row powers.(m) 0 in
      Dist.cdf_in_place shared;
      { powers; mixed = m; shared }

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

(* At a mixed level every midpoint comes from the table's one shared law,
   else from its pair's Formula 1 law. *)
let fill_level prng t w =
  if w.gap_exp = 0 then invalid_arg "Topdown.fill_level: walk already complete";
  let len = Array.length w.verts in
  let out = Array.make ((2 * len) - 1) 0 in
  for i = 0 to len - 1 do
    out.(2 * i) <- w.verts.(i)
  done;
  let mixed = w.gap_exp - 1 >= t.mixed in
  for i = 0 to len - 2 do
    out.((2 * i) + 1) <-
      (if mixed then Dist.search t.shared (Prng.float prng 1.0)
       else
         let a = w.verts.(i) and b = w.verts.(i + 1) in
         Dist.sample_weights
           (midpoint_weights t.powers ~gap_exp:w.gap_exp ~a ~b)
           prng)
  done;
  { gap_exp = w.gap_exp - 1; verts = out }

let fill_level_truncated prng t w ~rho =
  let filled = fill_level prng t w in
  { filled with verts = Walk.truncate_at_distinct filled.verts ~rho }

(* The longest partial walk a level may hold before the next is filled. *)
let max_material = 4_000_000

let sample_truncated_matrix prng ~table ~start ~target_len ~rho =
  if target_len <= 0 then
    invalid_arg "Topdown.sample_truncated_matrix: target_len <= 0";
  let levels = levels_for ~len:target_len in
  if Array.length table.powers < levels + 1 then
    invalid_arg "Topdown.sample_truncated_matrix: powers table too short";
  let rec go w =
    if Array.length w.verts > max_material then
      failwith "Topdown.sample_truncated: materialized walk exceeds cap";
    if w.gap_exp = 0 then w.verts
    else go (fill_level_truncated prng table w ~rho)
  in
  go (initial_walk prng table.powers ~start ~levels)
