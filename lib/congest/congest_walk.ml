module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Walk = Cc_walks.Walk
module Prng = Cc_util.Prng

type result = {
  tree : Cc_graph.Tree.t;
  rounds : float;
  walk_length : int;
  stitches : int;
}

(* Aldous-Broder bookkeeping shared by both baselines. *)
type cover_state = {
  visited : bool array;
  mutable remaining : int;
  mutable tree_edges : (int * int) list;
}

let cover_start n =
  let visited = Array.make n false in
  visited.(0) <- true;
  { visited; remaining = n - 1; tree_edges = [] }

let consume_step st ~from ~to_ =
  if not st.visited.(to_) then begin
    st.visited.(to_) <- true;
    st.remaining <- st.remaining - 1;
    st.tree_edges <- (from, to_) :: st.tree_edges
  end

let step_by_step net prng =
  let g = Cnet.graph net in
  let before = Cnet.rounds net in
  let st = cover_start (Graph.n g) in
  let current = ref 0 and steps = ref 0 in
  while st.remaining > 0 do
    let next = Walk.step g prng !current in
    Cnet.exchange net [ { Cnet.src = !current; dst = next; words = 1 } ];
    consume_step st ~from:!current ~to_:next;
    current := next;
    incr steps
  done;
  {
    tree = Tree.of_edges ~n:(Graph.n g) st.tree_edges;
    rounds = Cnet.rounds net -. before;
    walk_length = !steps;
    stitches = 0;
  }

let auto_lambda net ~walk_estimate =
  max 1
    (int_of_float
       (Float.sqrt (Float.of_int (max 1 walk_estimate * max 1 (Cnet.depth net)))))

(* Phase 1 of Das Sarma et al.: every vertex grows [eta] walks of length
   [lambda], one edge per token per round; the per-round cost is the worst
   per-edge congestion, which is exactly how CONGEST serializes messages. *)
let build_short_walks net prng ~lambda ~eta =
  let g = Cnet.graph net in
  let n = Graph.n g in
  let walks = Array.init n (fun v -> Array.init eta (fun _ -> [ v ])) in
  for _ = 1 to lambda do
    let congestion = Hashtbl.create (4 * n) in
    Array.iter
      (fun per_vertex ->
        Array.iteri
          (fun i trail ->
            match trail with
            | [] -> assert false
            | head :: _ ->
                let next = Walk.step g prng head in
                per_vertex.(i) <- next :: trail;
                Hashtbl.replace congestion (head, next)
                  (1 + Option.value ~default:0 (Hashtbl.find_opt congestion (head, next))))
          per_vertex)
      walks;
    let worst = Hashtbl.fold (fun _ c acc -> max c acc) congestion 0 in
    Cnet.charge net (Float.of_int worst)
  done;
  (* Stacks of unused walks per vertex, oldest first; trails are reversed. *)
  Array.map
    (fun per_vertex ->
      let stack = Stack.create () in
      Array.iter (fun trail -> Stack.push (Array.of_list (List.rev trail)) stack) per_vertex;
      stack)
    walks

let das_sarma net prng ~lambda ~eta =
  if lambda < 1 || eta < 1 then invalid_arg "Congest_walk.das_sarma: bad params";
  let g = Cnet.graph net in
  let n = Graph.n g in
  let before = Cnet.rounds net in
  let st = cover_start n in
  let stock = ref (build_short_walks net prng ~lambda ~eta) in
  let current = ref 0 and steps = ref 0 and stitches = ref 0 in
  (* Rebuild a fresh batch at most this often; past the cap, fall back to
     single steps (keeps adversarial inputs from looping on phase 1). *)
  let rebuilds_left = ref 64 in
  while st.remaining > 0 do
    let stack = !stock.(!current) in
    if Stack.is_empty stack && !rebuilds_left > 0 then begin
      decr rebuilds_left;
      stock := build_short_walks net prng ~lambda ~eta
    end;
    if Stack.is_empty !stock.(!current) then begin
      (* Fallback: one token step, one round. *)
      let next = Walk.step g prng !current in
      Cnet.exchange net [ { Cnet.src = !current; dst = next; words = 1 } ];
      consume_step st ~from:!current ~to_:next;
      current := next;
      incr steps
    end
    else begin
      let trail = Stack.pop !stock.(!current) in
      (* The trail starts at !current; replay it for first-visit edges. *)
      for i = 1 to Array.length trail - 1 do
        consume_step st ~from:trail.(i - 1) ~to_:trail.(i)
      done;
      steps := !steps + Array.length trail - 1;
      incr stitches;
      let endpoint = trail.(Array.length trail - 1) in
      ignore (Cnet.token_route net ~src:!current ~dst:endpoint ~words:1);
      current := endpoint
    end
  done;
  {
    tree = Tree.of_edges ~n st.tree_edges;
    rounds = Cnet.rounds net -. before;
    walk_length = !steps;
    stitches = !stitches;
  }
