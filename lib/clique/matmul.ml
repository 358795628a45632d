module Mat = Cc_linalg.Mat
module Fixed = Cc_linalg.Fixed

type backend =
  | Charged of { alpha : float; coeff : float }
  | Routed_broadcast
  | Routed_semiring

let default_alpha = 0.158

let charged ?(alpha = default_alpha) ?(coeff = 1.0) () = Charged { alpha; coeff }

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
  | Charged { alpha; coeff } ->
      Float.max 1.0 (coeff *. blocks *. (nf ** alpha) *. ew)
  | Routed_broadcast -> blocks *. nf *. ew
  | Routed_semiring ->
      (* Each machine receives two n^(2/3) x n^(2/3) blocks and emits
         n^(4/3) partial products: ceil(3 n^(4/3) ew / n) = 3 n^(1/3) ew. *)
      Float.max 1.0 (blocks *. 3.0 *. (nf ** (1.0 /. 3.0)) *. ew)

let rounds_estimate net backend = mul_cost net backend ~dim:(Net.n net)

(* [book_mul] is the communication half of [mul]: it books exactly the Net
   events a [dim x dim] product emits — same primitives, same labels, same
   word counts — without touching any matrix. Plan-cache hits replay bookings
   through this mirror, so a warm draw's recorder digest chains over the
   identical event sequence as the cold run that computed the product. Keep
   the two in lockstep: any booking change in [mul] must land here too. *)
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
      let sent = Array.make n per_machine and recv = Array.make n per_machine in
      let load = Array.fold_left max 0 (Array.append sent recv) in
      Net.charge net ~label:"matmul" (Float.of_int ((load + n - 1) / n))
  | Routed_semiring -> Net.charge net ~label:"matmul" (mul_cost net backend ~dim)

let mul net backend a b =
  let dim = Mat.rows a in
  if Mat.cols a <> dim || Mat.rows b <> dim || Mat.cols b <> dim then
    invalid_arg "Matmul.mul: operands must be square and equal-sized";
  Cc_obs.Metrics.incr "matmul.muls";
  Cc_obs.Trace.with_span "matmul.mul"
    ~args:[ ("dim", string_of_int dim); ("backend", backend_name backend) ]
  @@ fun () ->
  book_mul net backend ~dim;
  Mat.mul a b

let power_table net backend ?bits ?reuse m ~levels =
  if Mat.rows m <> Mat.cols m then
    invalid_arg "Matmul.power_table: matrix must be square";
  if levels < 0 then invalid_arg "Matmul.power_table: negative levels";
  (match reuse with
  | Some t when Array.length t <> levels + 1 ->
      invalid_arg "Matmul.power_table: reuse table has wrong length"
  | _ -> ());
  Cc_obs.Trace.with_span "matmul.power_table"
    ~args:
      [
        ("dim", string_of_int (Mat.rows m));
        ("levels", string_of_int levels);
        ("backend", backend_name backend);
        ("reuse", string_of_bool (reuse <> None));
      ]
  @@ fun () ->
  match reuse with
  | Some cached ->
      (* Factorization reuse: the powers are already known (a prepared plan
         holds them), but the clique still pays for moving them — replay the
         identical booking sequence, skip the arithmetic. Pure compute emits
         no Net events, so the recorder digest chains identically either
         way. *)
      Cc_obs.Metrics.incr "matmul.power_table.reused";
      Net.all_to_all net ~label:"power-table transpose"
        ~words_each:(Net.entry_words net);
      for _ = 1 to levels do
        book_mul net backend ~dim:(Mat.rows m);
        Net.all_to_all net ~label:"power-table transpose"
          ~words_each:(Net.entry_words net)
      done;
      cached
  | None ->
      let maybe_round x =
        match bits with None -> x | Some b -> Fixed.round_mat ~bits:b x
      in
      let table = Array.make (levels + 1) (maybe_round m) in
      (* Column redistribution for the base matrix too (machine i sends
         P[i,j] to machine j). *)
      Net.all_to_all net ~label:"power-table transpose"
        ~words_each:(Net.entry_words net);
      for i = 1 to levels do
        table.(i) <- maybe_round (mul net backend table.(i - 1) table.(i - 1));
        Net.all_to_all net ~label:"power-table transpose"
          ~words_each:(Net.entry_words net)
      done;
      table

let power_table_pure ?bits m ~levels =
  if Mat.rows m <> Mat.cols m then
    invalid_arg "Matmul.power_table_pure: matrix must be square";
  if levels < 0 then invalid_arg "Matmul.power_table_pure: negative levels";
  let maybe_round x =
    match bits with None -> x | Some b -> Fixed.round_mat ~bits:b x
  in
  let table = Array.make (levels + 1) (maybe_round m) in
  for i = 1 to levels do
    table.(i) <- maybe_round (Mat.mul table.(i - 1) table.(i - 1))
  done;
  table
