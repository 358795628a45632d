type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : (int * int) list;
}

type value = Counter of int | Gauge of float | Histogram of histogram

(* Internal mutable instrument state. Counters and gauges are single mutable
   cells; histogram scalar moments live in a flat float array (sum/min/max)
   so [observe] never boxes a float — the hot path is field stores only. *)
type hstate = {
  mutable hcount : int;
  moments : float array; (* [| sum; min; max |] *)
  hbuckets : int array;
}

type entry =
  | C of { mutable c : int }
  | G of { mutable g : float }
  | H of hstate

let n_buckets = 128

(* Bucket i (1 <= i <= 127) covers [2^(i-64), 2^(i-63)); bucket 0 catches
   non-positive, non-finite-negative, and underflowing observations. The
   index is exact arithmetic on the float exponent: deterministic, and
   [Float.log2] stays in float registers (no allocation). *)
let bucket_of x =
  if x <= 0.0 || Float.is_nan x then 0
  else if x = Float.infinity then n_buckets - 1
  else begin
    let e = int_of_float (Float.floor (Float.log2 x)) in
    let i = e + 64 in
    if i < 1 then 0 else if i > n_buckets - 1 then n_buckets - 1 else i
  end

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already bound to another instrument kind"
       name)

let incr ?(by = 1) name =
  match Hashtbl.find_opt registry name with
  | None -> Hashtbl.replace registry name (C { c = by })
  | Some (C r) -> r.c <- r.c + by
  | Some _ -> kind_error name

let set_gauge name x =
  match Hashtbl.find_opt registry name with
  | None -> Hashtbl.replace registry name (G { g = x })
  | Some (G r) -> r.g <- x
  | Some _ -> kind_error name

let fresh_hstate () =
  {
    hcount = 0;
    moments = [| 0.0; Float.infinity; Float.neg_infinity |];
    hbuckets = Array.make n_buckets 0;
  }

let hstate_observe st x =
  st.hcount <- st.hcount + 1;
  st.moments.(0) <- st.moments.(0) +. x;
  if x < st.moments.(1) then st.moments.(1) <- x;
  if x > st.moments.(2) then st.moments.(2) <- x;
  let b = bucket_of x in
  st.hbuckets.(b) <- st.hbuckets.(b) + 1

let observe name x =
  match Hashtbl.find_opt registry name with
  | None ->
      let st = fresh_hstate () in
      hstate_observe st x;
      Hashtbl.replace registry name (H st)
  | Some (H st) -> hstate_observe st x
  | Some _ -> kind_error name

(* --- percentiles and summaries --- *)

let percentile_dense ~count ~min ~max dense q =
  if count = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (q *. Float.of_int count)) in
    let rank = if rank < 1 then 1 else if rank > count then count else rank in
    let idx = ref (-1) and cum = ref 0 in
    (try
       for i = 0 to Array.length dense - 1 do
         cum := !cum + dense.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !idx <= 0 then min
    else
      (* upper bound of the bucket, clamped into the observed range *)
      let upper = Float.ldexp 1.0 (!idx - 63) in
      Float.min max (Float.max min upper)
  end

let sparse_of_dense dense =
  let acc = ref [] in
  for i = Array.length dense - 1 downto 0 do
    if dense.(i) > 0 then acc := (i, dense.(i)) :: !acc
  done;
  !acc

let dense_of_sparse sparse =
  let dense = Array.make n_buckets 0 in
  List.iter
    (fun (i, c) -> if i >= 0 && i < n_buckets then dense.(i) <- dense.(i) + c)
    sparse;
  dense

let summary_of_dense ~count ~sum ~min ~max dense =
  {
    count;
    sum;
    min;
    max;
    p50 = percentile_dense ~count ~min ~max dense 0.50;
    p95 = percentile_dense ~count ~min ~max dense 0.95;
    p99 = percentile_dense ~count ~min ~max dense 0.99;
    buckets = sparse_of_dense dense;
  }

let summary_of_hstate st =
  summary_of_dense ~count:st.hcount ~sum:st.moments.(0) ~min:st.moments.(1)
    ~max:st.moments.(2) st.hbuckets

let value_of_entry = function
  | C r -> Counter r.c
  | G r -> Gauge r.g
  | H st -> Histogram (summary_of_hstate st)

let snapshot () =
  Hashtbl.fold (fun name e acc -> (name, value_of_entry e) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () = Hashtbl.reset registry

(* --- rendering --- *)

let pp fmt () =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter c -> Format.fprintf fmt "%-36s counter %12d@," name c
      | Gauge g -> Format.fprintf fmt "%-36s gauge   %12g@," name g
      | Histogram h ->
          Format.fprintf fmt
            "%-36s hist    %12d obs  mean %.4g  min %.4g  max %.4g  p50 \
             %.4g  p95 %.4g  p99 %.4g@,"
            name h.count
            (h.sum /. Float.of_int (max 1 h.count))
            h.min h.max h.p50 h.p95 h.p99)
    (snapshot ());
  Format.fprintf fmt "@]"

(* --- JSON --- *)

let value_to_json = function
  | Counter c -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int c) ]
  | Gauge g -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.float_opt g) ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int h.count);
          ("sum", Json.float_opt h.sum);
          ("min", Json.float_opt h.min);
          ("max", Json.float_opt h.max);
          ("mean", Json.float_opt (h.sum /. Float.of_int (max 1 h.count)));
          ("p50", Json.float_opt h.p50);
          ("p95", Json.float_opt h.p95);
          ("p99", Json.float_opt h.p99);
          ( "buckets",
            Json.List
              (List.map
                 (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
                 h.buckets) );
        ]

let value_of_json v =
  let ( let* ) = Result.bind in
  let* ty = Json.string_field "type" v in
  match ty with
  | "counter" ->
      let* c = Json.int_field "value" v in
      Ok (Counter c)
  | "gauge" ->
      let* g = Json.float_field "value" v in
      Ok (Gauge g)
  | "histogram" ->
      let* count = Json.int_field "count" v in
      let* sum = Json.float_field "sum" v in
      let* mn = Json.float_field "min" v in
      let* mx = Json.float_field "max" v in
      let* buckets =
        match Option.bind (Json.member "buckets" v) Json.to_list_opt with
        | None -> Ok [] (* tolerated: summary-only histogram *)
        | Some l ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | Json.List [ Json.Int i; Json.Int c ] :: rest ->
                  go ((i, c) :: acc) rest
              | _ -> Error "field \"buckets\": expected [index, count] pairs"
            in
            go [] l
      in
      let dense = dense_of_sparse buckets in
      Ok (Histogram (summary_of_dense ~count ~sum ~min:mn ~max:mx dense))
  | t -> Error (Printf.sprintf "unknown instrument type %S" t)

let to_json () =
  Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) (snapshot ()))
