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

(* Walks from [start] until every vertex is seen. [mean_cover_time] checks
   first that [g] is connected: otherwise this never returns. *)
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

let mean_cover_time g prng ~trials =
  if trials <= 0 then invalid_arg "Walk.mean_cover_time: trials <= 0";
  if not (Graph.is_connected g) then
    invalid_arg "Walk.mean_cover_time: graph must be connected";
  let acc = ref 0.0 in
  for _ = 1 to trials do
    acc := !acc +. float_of_int (cover g prng ~start:0)
  done;
  !acc /. float_of_int trials
