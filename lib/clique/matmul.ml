module Mat = Cc_linalg.Mat
module Fixed = Cc_linalg.Fixed

type backend =
  | Charged of { alpha : float }
  | Routed_broadcast
  | Routed_semiring

let default_alpha = 0.158

let charged ?(alpha = default_alpha) () = Charged { alpha }

let backend_name = function
  | Charged _ -> "charged"
  | Routed_broadcast -> "routed-broadcast"
  | Routed_semiring -> "routed-semiring"

let mul_cost net backend ~dim =
  let nf = Float.of_int (Net.n net) in
  let df = Float.of_int dim in
  let ew = Float.of_int (Net.entry_words net) in
  (* A dim x dim product on n machines: (dim/n)^2 row-block products, each at
     the clique's native n x n cost. *)
  let blocks = Float.max 1.0 ((df /. nf) ** 2.0) in
  match backend with
  | Charged { alpha } -> Float.max 1.0 (blocks *. (nf ** alpha) *. ew)
  | Routed_broadcast -> blocks *. nf *. ew
  | Routed_semiring ->
      (* Each machine receives two n^(2/3) x n^(2/3) blocks and emits
         n^(4/3) partial products: ceil(3 n^(4/3) ew / n) = 3 n^(1/3) ew. *)
      Float.max 1.0 (blocks *. 3.0 *. (nf ** (1.0 /. 3.0)) *. ew)

(* The communication of one [dim x dim] product. Its arithmetic is local
   computation, which the model does not charge, so nothing here touches a
   matrix. *)
let book_mul net backend ~dim =
  let n = Net.n net in
  match backend with
  | Charged _ -> Net.charge net ~label:"matmul" (mul_cost net backend ~dim)
  | Routed_broadcast when dim = n ->
      (* Machine k broadcasts its row of b (n entries) to all machines. *)
      let ew = Net.entry_words net in
      let packets = ref [] in
      for k = 0 to n - 1 do
        for j = 0 to n - 1 do
          if j <> k then packets := { Net.src = k; dst = j; words = n * ew } :: !packets
        done
      done;
      Net.exchange net ~label:"matmul" !packets
  | Routed_broadcast ->
      (* Off-size operands (e.g. |S| x |S| in later phases, or the 2n x 2n
         auxiliary chain): book the analytic cost of the same broadcast
         pattern with rows shared round-robin across machines. *)
      Net.charge net ~label:"matmul" (mul_cost net backend ~dim)
  | Routed_semiring when dim = n ->
      (* 3D decomposition: machine (i,j,l) of the n^(1/3)-cube multiplies
         block A[i,l] by block B[l,j]. Meter the real loads: every machine
         receives 2 b^2 operand words and sends/receives b^2 partial-product
         words for the combine step, b = n^(2/3). *)
      let ew = Net.entry_words net in
      let b = int_of_float (Float.ceil (Float.of_int n ** (2.0 /. 3.0))) in
      let per_machine = 3 * b * b * ew in
      Net.charge net ~label:"matmul" (Float.of_int ((per_machine + n - 1) / n))
  | Routed_semiring -> Net.charge net ~label:"matmul" (mul_cost net backend ~dim)

let maybe_round bits m =
  match bits with None -> m | Some b -> Fixed.round_mat ~bits:b m

let power_table_pure ?bits m ~levels =
  if Mat.rows m <> Mat.cols m then
    invalid_arg "Matmul.power_table_pure: matrix must be square";
  if levels < 0 then invalid_arg "Matmul.power_table_pure: negative levels";
  let args =
    if Cc_obs.Trace.enabled () then [ ("dim", string_of_int (Mat.rows m)) ]
    else []
  in
  let computed = ref 0 in
  let table =
    Mat.squarings ~exact:(bits <> None)
      ~square:(fun t ->
        incr computed;
        Cc_obs.Metrics.incr "matmul.muls";
        Cc_obs.Trace.with_span "matmul.mul" ~args (fun () ->
            maybe_round bits (Mat.mul t t)))
      (maybe_round bits m) ~levels
  in
  (* The levels a stopped table aliases to its stop level. *)
  if !computed < levels then
    Cc_obs.Metrics.incr ~by:(levels - !computed) "matmul.squarings_skipped";
  table

let book_power_table net backend ~dim ~levels =
  if levels < 0 then invalid_arg "Matmul.book_power_table: negative levels";
  let args =
    if Cc_obs.Trace.enabled () then
      [
        ("dim", string_of_int dim);
        ("levels", string_of_int levels);
        ("backend", backend_name backend);
      ]
    else []
  in
  Cc_obs.Trace.with_span "matmul.power_table" ~args @@ fun () ->
  (* Column redistribution of a level (machine i sends P^k[i,j] to machine
     j), booked after the base matrix and after every squaring. *)
  let transpose () =
    Net.all_to_all net ~label:"power-table transpose"
      ~words_each:(Net.entry_words net)
  in
  transpose ();
  for _ = 1 to levels do
    book_mul net backend ~dim;
    transpose ()
  done
