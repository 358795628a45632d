type t = {
  n : int;
  adj : (int * float) array array;
  edges : (int * int * float) list; (* u < v, each edge once *)
}

let of_edges ~n edge_list =
  if n <= 0 then invalid_arg "Graph.of_edges: n <= 0";
  let seen = Hashtbl.create (List.length edge_list) in
  let canonical =
    List.map
      (fun (u, v, w) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Graph.of_edges: endpoint out of range";
        if u = v then invalid_arg "Graph.of_edges: self-loop";
        if w <= 0.0 || not (Float.is_finite w) then
          invalid_arg "Graph.of_edges: weight must be positive and finite";
        let u, v = if u < v then (u, v) else (v, u) in
        if Hashtbl.mem seen (u, v) then
          invalid_arg "Graph.of_edges: duplicate edge";
        Hashtbl.add seen (u, v) ();
        (u, v, w))
      edge_list
  in
  let buckets = Array.make n [] in
  List.iter
    (fun (u, v, w) ->
      buckets.(u) <- (v, w) :: buckets.(u);
      buckets.(v) <- (u, w) :: buckets.(v))
    canonical;
  let adj =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort compare a;
        a)
      buckets
  in
  { n; adj; edges = List.sort compare canonical }

let of_unweighted_edges ~n edge_list =
  of_edges ~n (List.map (fun (u, v) -> (u, v, 1.0)) edge_list)

let n g = g.n
let num_edges g = List.length g.edges
let edges g = g.edges
let neighbors g u = g.adj.(u)

(* The left fold of u's weights, as a plain loop so that no sum is boxed. *)
let weighted_degree g u =
  let adj = g.adj.(u) in
  let acc = ref 0.0 in
  for e = 0 to Array.length adj - 1 do
    let _, w = Array.unsafe_get adj e in
    acc := !acc +. w
  done;
  !acc

let edge_weight g u v =
  let arr = g.adj.(u) in
  let rec go i =
    if i >= Array.length arr then 0.0
    else
      let x, w = arr.(i) in
      if x = v then w else go (i + 1)
  in
  go 0

let has_edge g u v = edge_weight g u v > 0.0

let is_connected g =
  let visited = Array.make g.n false in
  let queue = Queue.create () in
  Queue.add 0 queue;
  visited.(0) <- true;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun (v, _) ->
        if not visited.(v) then begin
          visited.(v) <- true;
          incr count;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  !count = g.n

let total_weight g =
  List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 g.edges

(* Both builders fill row u from u's adjacency, O(n^2 + m) in all; every
   entry they leave at its initial value is the one a non-edge gets. *)
let transition_matrix g =
  let p = Cc_linalg.Mat.create ~rows:g.n ~cols:g.n 0.0 in
  for u = 0 to g.n - 1 do
    let d = weighted_degree g u in
    if d = 0.0 then Cc_linalg.Mat.set p u u 1.0
    else Array.iter (fun (v, w) -> Cc_linalg.Mat.set p u v (w /. d)) g.adj.(u)
  done;
  p

(* The rows of U = V \ keep from adjacency, in weight units, as
   Gth.factor reads them: row r is U's r-th vertex in ascending order, the
   columns are U's vertices and then [keep]'s, and only the entries right
   of the diagonal are written. [col] maps every vertex to its column. *)
let eliminate g ~keep =
  let n = g.n and nk = Array.length keep in
  let nu = n - nk in
  let col = Array.make n (-1) in
  Array.iteri
    (fun c v ->
      if v < 0 || v >= n then invalid_arg "Graph.eliminate: vertex out of range";
      if col.(v) >= 0 then invalid_arg "Graph.eliminate: duplicate vertex";
      col.(v) <- nu + c)
    keep;
  let u_of = Array.make nu 0 and next = ref 0 in
  for v = 0 to n - 1 do
    if col.(v) < 0 then begin
      col.(v) <- !next;
      u_of.(!next) <- v;
      incr next
    end
  done;
  let a = Array.make (nu * n) 0.0 in
  Array.iteri
    (fun r u ->
      Array.iter
        (fun (x, w) ->
          let c = col.(x) in
          if c > r then a.((r * n) + c) <- w)
        g.adj.(u))
    u_of;
  (u_of, Cc_linalg.Gth.factor a ~nu ~nk)

(* L_UU^{-1} for U = V \ {ground}, padded with a zero row and column. *)
let grounded_inverse g ~ground =
  if ground < 0 || ground >= g.n then
    invalid_arg "Graph.grounded_inverse: ground out of range";
  let u_of, f = eliminate g ~keep:[| ground |] in
  let x = Cc_linalg.Gth.inverse f and nu = g.n - 1 in
  let out = Cc_linalg.Mat.create ~rows:g.n ~cols:g.n 0.0 in
  let od = Cc_linalg.Mat.data out in
  Array.iteri
    (fun r u -> Array.iteri (fun c v -> od.((u * g.n) + v) <- x.((r * nu) + c)) u_of)
    u_of;
  out

(* With y = X (e_u - e_v), R_eff(u, v) = y_u - y_v. *)
let edge_resistances g =
  let x = grounded_inverse g ~ground:(g.n - 1) in
  let y = Array.make g.n 0.0 in
  let r = Array.make (List.length g.edges) 0.0 in
  List.iteri
    (fun i (u, v, _) ->
      Cc_linalg.Mat.col_diff_into x ~u ~v y;
      r.(i) <- y.(u) -. y.(v))
    g.edges;
  r

let to_string g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" g.n);
  List.iter
    (fun (u, v, w) -> Buffer.add_string buf (Printf.sprintf "e %d %d %.17g\n" u v w))
    g.edges;
  Buffer.contents buf

(* [edges] is stored sorted with [u < v], so two graphs built from permuted
   edge lists serialize — and hash — identically, while any weight change
   (printed at full [%.17g] precision) lands in the digest. *)
let fingerprint g = Cc_obs.Recorder.fnv64_hex (to_string g)

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  (* A line is exactly its blank-separated fields: nothing may trail them. *)
  let fields line =
    String.map (fun c -> if c = '\t' then ' ' else c) line
    |> String.split_on_char ' '
    |> List.filter (fun f -> f <> "")
  in
  let bad_edge () = invalid_arg "Graph.of_string: bad edge line" in
  let edge u v w =
    match (int_of_string_opt u, int_of_string_opt v, float_of_string_opt w) with
    | Some u, Some v, Some w -> (u, v, w)
    | _ -> bad_edge ()
  in
  match lines with
  | [] -> invalid_arg "Graph.of_string: empty input"
  | first :: rest ->
      let nv =
        match fields first with
        | [ "n"; count ] when int_of_string_opt count <> None ->
            int_of_string count
        | _ -> invalid_arg "Graph.of_string: expected 'n <count>' header"
      in
      let edge_list =
        List.map
          (fun line ->
            match fields line with
            | [ "e"; u; v ] -> edge u v "1"
            | [ "e"; u; v; w ] -> edge u v w
            | _ -> bad_edge ())
          rest
      in
      of_edges ~n:nv edge_list
