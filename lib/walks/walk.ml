module Graph = Cc_graph.Graph
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Mat = Cc_linalg.Mat

let step g prng u =
  let nbrs = Graph.neighbors g u in
  if Array.length nbrs = 0 then invalid_arg "Walk.step: isolated vertex";
  let total = Graph.weighted_degree g u in
  let x = Prng.float prng total in
  let rec go i acc =
    if i = Array.length nbrs - 1 then fst nbrs.(i)
    else
      let v, w = nbrs.(i) in
      let acc = acc +. w in
      if x < acc then v else go (i + 1) acc
  in
  go 0 0.0

let walk g prng ~start ~len =
  if len < 0 then invalid_arg "Walk.walk: negative length";
  let out = Array.make (len + 1) start in
  for i = 1 to len do
    out.(i) <- step g prng out.(i - 1)
  done;
  out

let first_visit_edges walk_seq =
  if Array.length walk_seq = 0 then invalid_arg "Walk.first_visit_edges: empty";
  let visited = Hashtbl.create 64 in
  Hashtbl.add visited walk_seq.(0) ();
  let acc = ref [] in
  for i = 1 to Array.length walk_seq - 1 do
    let v = walk_seq.(i) in
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.add visited v ();
      acc := (walk_seq.(i - 1), v) :: !acc
    end
  done;
  List.rev !acc

let distinct_count walk_seq =
  let seen = Hashtbl.create 64 in
  Array.iter (fun v -> if not (Hashtbl.mem seen v) then Hashtbl.add seen v ()) walk_seq;
  Hashtbl.length seen

let truncate_at_distinct walk_seq ~rho =
  if rho <= 0 then invalid_arg "Walk.truncate_at_distinct: rho <= 0";
  let seen = Hashtbl.create 64 in
  let cut = ref (-1) in
  (try
     Array.iteri
       (fun i v ->
         if not (Hashtbl.mem seen v) then begin
           Hashtbl.add seen v ();
           if Hashtbl.length seen = rho then begin
             cut := i;
             raise Exit
           end
         end)
       walk_seq
   with Exit -> ());
  if !cut < 0 then walk_seq else Array.sub walk_seq 0 (!cut + 1)

(* Walks from [start] until every vertex is seen. [cover_time] and
   [mean_cover_time] check first that [g] is connected: otherwise this
   never returns. *)
let cover g prng ~start =
  let n = Graph.n g in
  let visited = Array.make n false in
  visited.(start) <- true;
  let remaining = ref (n - 1) in
  let current = ref start and steps = ref 0 in
  while !remaining > 0 do
    current := step g prng !current;
    incr steps;
    if not visited.(!current) then begin
      visited.(!current) <- true;
      decr remaining
    end
  done;
  !steps

let cover_time g prng ~start =
  if not (Graph.is_connected g) then
    invalid_arg "Walk.cover_time: graph must be connected";
  cover g prng ~start

let time_to_distinct g prng ~start ~rho =
  if rho <= 0 then invalid_arg "Walk.time_to_distinct: rho <= 0";
  if rho > Graph.n g then invalid_arg "Walk.time_to_distinct: rho > n";
  if rho = 1 then 0
  else begin
    let visited = Array.make (Graph.n g) false in
    visited.(start) <- true;
    let count = ref 1 and current = ref start and steps = ref 0 in
    while !count < rho do
      current := step g prng !current;
      incr steps;
      if not visited.(!current) then begin
        visited.(!current) <- true;
        incr count
      end
    done;
    !steps
  end

let mean_cover_time g prng ~trials =
  if trials <= 0 then invalid_arg "Walk.mean_cover_time: trials <= 0";
  if not (Graph.is_connected g) then
    invalid_arg "Walk.mean_cover_time: graph must be connected";
  let acc = ref 0.0 in
  for _ = 1 to trials do
    acc := !acc +. float_of_int (cover g prng ~start:0)
  done;
  !acc /. float_of_int trials

let stationary g =
  Dist.of_weights
    (Array.init (Graph.n g) (fun u -> Graph.weighted_degree g u))

let endpoint_distribution g ~start ~len =
  let p = Graph.transition_matrix g in
  let pk = Mat.power p len in
  Dist.of_weights (Mat.row pk start)
