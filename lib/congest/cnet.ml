module Graph = Cc_graph.Graph

type t = {
  graph : Graph.t;
  parent : int array; (* BFS tree toward vertex 0 *)
  dist : int array; (* BFS depth of each vertex *)
  depth : int;
  mutable total_rounds : float;
}

let create g =
  if not (Graph.is_connected g) then invalid_arg "Cnet.create: disconnected";
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let dist = Array.make n max_int in
  dist.(0) <- 0;
  let queue = Queue.create () in
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun (v, _) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  let depth = Array.fold_left max 0 dist in
  { graph = g; parent; dist; depth; total_rounds = 0.0 }

let graph t = t.graph
let rounds t = t.total_rounds

let book t r = t.total_rounds <- t.total_rounds +. r

type packet = { src : int; dst : int; words : int }

let exchange t packets =
  let load = Hashtbl.create 64 in
  List.iter
    (fun { src; dst; words } ->
      if words < 0 then invalid_arg "Cnet.exchange: negative payload";
      if src <> dst && words > 0 then begin
        if not (Graph.has_edge t.graph src dst) then
          invalid_arg "Cnet.exchange: endpoints not adjacent";
        Hashtbl.replace load (src, dst)
          (words + Option.value ~default:0 (Hashtbl.find_opt load (src, dst)))
      end)
    packets;
  let max_load = Hashtbl.fold (fun _ w acc -> max w acc) load 0 in
  if max_load > 0 then book t (Float.of_int max_load)

let depth t = t.depth

let token_route t ~src ~dst ~words =
  if src < 0 || src >= Graph.n t.graph || dst < 0 || dst >= Graph.n t.graph then
    invalid_arg "Cnet.token_route: bad endpoint";
  if words < 0 then invalid_arg "Cnet.token_route: negative payload";
  if src = dst || words = 0 then 0.0
  else begin
    (* Route src -> root -> dst over the BFS tree; hop count is an upper
       bound on the shortest path, and every hop carries [words] words. *)
    let hops = t.dist.(src) + t.dist.(dst) in
    let r = Float.of_int (hops * words) in
    book t r;
    r
  end

let charge t r =
  if r < 0.0 then invalid_arg "Cnet.charge: negative rounds";
  book t r
