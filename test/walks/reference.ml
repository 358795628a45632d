(* The test references of cc_walks. Test-only: nothing in lib/ calls this
   module.

   - [first_visit_edges] and [time_to_distinct]: the Aldous-Broder rule over
     an explicit walk, and the stopping time T of Phase 1 by stepping a walk,
     which the top-down references of test/shared are checked against.
   - The chain-rule sampler as lib/walks computed it by rebuilding graphs:
     at each step, the classes of the kept edges are relabelled through a
     [Hashtbl], the remaining edges are merged into a fresh contracted
     [Graph.t], and test/shared's [effective_resistance] grounds its
     Laplacian at v's class. [Determinantal.chain_rule] moves one grounded inverse by
     rank-one updates instead, and must offer its coin each p within 1e-8
     of this one, with the same number of offers and the same tree; the
     properties in test_walks compare the two. *)

module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng

(* For every vertex other than walk.(0) that appears, the edge used at its
   first visit, as (predecessor, vertex) pairs in order of first visit. *)
let first_visit_edges walk =
  if Array.length walk = 0 then invalid_arg "Reference.first_visit_edges: empty";
  let visited = Hashtbl.create 64 in
  Hashtbl.add visited walk.(0) ();
  let acc = ref [] in
  for i = 1 to Array.length walk - 1 do
    let v = walk.(i) in
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.add visited v ();
      acc := (walk.(i - 1), v) :: !acc
    end
  done;
  List.rev !acc

(* The steps a walk from [start] takes until it has seen [rho] distinct
   vertices, [start] included. *)
let time_to_distinct g prng ~start ~rho =
  let visited = Array.make (Graph.n g) false in
  visited.(start) <- true;
  let count = ref 1 and current = ref start and steps = ref 0 in
  while !count < rho do
    current := Cc_walks.Walk.step g prng !current;
    incr steps;
    if not visited.(!current) then begin
      visited.(!current) <- true;
      incr count
    end
  done;
  !steps

(* Union-find over original vertices; supernodes are class representatives. *)
type uf = { parent : int array }

let uf_create n = { parent = Array.init n (fun i -> i) }

let rec uf_find uf i =
  if uf.parent.(i) = i then i
  else begin
    uf.parent.(i) <- uf_find uf uf.parent.(i);
    uf.parent.(i)
  end

let uf_union uf i j = uf.parent.(uf_find uf i) <- uf_find uf j

let chain_rule g ~coin =
  let n = Graph.n g in
  let uf = uf_create n in
  (* Remaining original edges, as a mutable list; the contracted graph is
     rebuilt on supernodes for each conditional (exactness over speed). *)
  let remaining = ref (Graph.edges g) in
  let chosen = ref [] in
  let contracted_graph () =
    (* Relabel supernodes compactly. *)
    let reps = Hashtbl.create 16 in
    let fresh = ref 0 in
    let id r =
      match Hashtbl.find_opt reps r with
      | Some i -> i
      | None ->
          let i = !fresh in
          incr fresh;
          Hashtbl.add reps r i;
          i
    in
    let weight_acc = Hashtbl.create 32 in
    List.iter
      (fun (u, v, w) ->
        let ru = id (uf_find uf u) and rv = id (uf_find uf v) in
        if ru <> rv then begin
          let key = if ru < rv then (ru, rv) else (rv, ru) in
          Hashtbl.replace weight_acc key
            (w +. Option.value ~default:0.0 (Hashtbl.find_opt weight_acc key))
        end)
      !remaining;
    let edges =
      Hashtbl.fold (fun (a, b) w acc -> (a, b, w) :: acc) weight_acc []
    in
    let size = max 1 !fresh in
    ( Graph.of_edges ~n:size edges,
      fun orig -> id (uf_find uf orig) )
  in
  List.iter
    (fun (u, v, w) ->
      if uf_find uf u = uf_find uf v then
        (* Both endpoints already connected by chosen edges: conditional
           inclusion probability is 0; just delete. *)
        remaining := List.filter (fun e -> e <> (u, v, w)) !remaining
      else begin
        let cg, translate = contracted_graph () in
        let p = w *. Shared.effective_resistance cg (translate u) (translate v) in
        remaining := List.filter (fun e -> e <> (u, v, w)) !remaining;
        if coin p then begin
          chosen := (u, v) :: !chosen;
          uf_union uf u v
        end
      end)
    (Graph.edges g);
  Tree.of_edges ~n !chosen

let sample_tree g prng =
  if not (Graph.is_connected g) then
    invalid_arg "Determinantal.sample_tree: disconnected";
  chain_rule g ~coin:(fun p -> Prng.float prng 1.0 < p)
