type record = {
  experiment : string;
  params : (string * string) list;
  measured : float option;
  bound : float option;
  ratio : float option;
  quality : (string * float) list;
}

type experiment = {
  id : string;
  title : string;
  wall_s : float option;
  max_load : int option;
  imbalance : float option;
}

type doc = {
  schema : string;
  fast : bool;
  experiments : experiment list;
  records : record list;
}

let ( let* ) = Result.bind

(* Param values arrive as arbitrary JSON scalars; stringify them the way the
   printed tables do so the two presentations line up. *)
let scalar_to_string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float x -> Printf.sprintf "%g" x
  | Json.String s -> s
  | (Json.List _ | Json.Obj _) as v -> Json.to_string v

let float_field key v = Option.bind (Json.member key v) Json.to_float_opt

let int_field key v =
  Option.bind (Json.member key v) (function Json.Int i -> Some i | _ -> None)

let string_field key v = Option.bind (Json.member key v) Json.to_string_opt

let parse_record v =
  match string_field "experiment" v with
  | None -> Error "record without an \"experiment\" id"
  | Some experiment ->
      let params =
        match Json.member "params" v with
        | Some (Json.Obj fields) ->
            List.map (fun (k, pv) -> (k, scalar_to_string pv)) fields
        | _ -> []
      in
      (* cc-bench/4: statistical-quality measurements (audit-plane TV, KL,
         max |z|, ESS, ...) ride along as a flat numeric object; non-numeric
         members are ignored rather than rejected. *)
      let quality =
        match Json.member "quality" v with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (k, qv) ->
                Option.map (fun x -> (k, x)) (Json.to_float_opt qv))
              fields
        | _ -> []
      in
      Ok
        {
          experiment;
          params;
          measured = float_field "measured" v;
          bound = float_field "bound" v;
          ratio = float_field "ratio" v;
          quality;
        }

let parse_experiment v =
  match string_field "id" v with
  | None -> Error "experiment without an \"id\""
  | Some id ->
      Ok
        {
          id;
          title = Option.value ~default:"" (string_field "title" v);
          wall_s = float_field "wall_s" v;
          max_load = int_field "max_load" v;
          imbalance = float_field "imbalance" v;
        }

let parse_all parse = function
  | None -> Ok []
  | Some v -> (
      match Json.to_list_opt v with
      | None -> Error "expected an array"
      | Some xs ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | x :: rest ->
                let* p = parse x in
                go (p :: acc) rest
          in
          go [] xs)

let of_json v =
  match string_field "schema" v with
  | None -> Error "not a cc-bench document: missing \"schema\""
  | Some schema when not (String.length schema >= 9
                          && String.sub schema 0 9 = "cc-bench/") ->
      Error (Printf.sprintf "unsupported schema %S (want cc-bench/*)" schema)
  | Some schema ->
      let fast =
        Option.value ~default:false
          (Option.bind (Json.member "fast" v) Json.to_bool_opt)
      in
      let* experiments =
        parse_all parse_experiment (Json.member "experiments" v)
      in
      let* records = parse_all parse_record (Json.member "records" v) in
      Ok { schema; fast; experiments; records }

let of_string s =
  let* v = Json.of_string s in
  of_json v

(* --- aggregation ------------------------------------------------------- *)

type agg = {
  exp : experiment;
  rows : int;
  mean_ratio : float option;
  worst_ratio : float option;
  quality : (string * float) list;
}

let aggregate doc =
  (* id -> (row count, ratio sum, ratio count, worst ratio) *)
  let stats : (string, int * float * int * float) Hashtbl.t =
    Hashtbl.create 16
  in
  (* id -> quality key -> (sum, count); keys in first-seen order. *)
  let qstats : (string, (string, float * int) Hashtbl.t * string list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun r ->
      let rows, sum, n, worst =
        match Hashtbl.find_opt stats r.experiment with
        | Some s -> s
        | None ->
            order := r.experiment :: !order;
            (0, 0.0, 0, Float.neg_infinity)
      in
      let sum, n, worst =
        match r.ratio with
        | Some x when Float.is_finite x -> (sum +. x, n + 1, Float.max worst x)
        | _ -> (sum, n, worst)
      in
      Hashtbl.replace stats r.experiment (rows + 1, sum, n, worst);
      if r.quality <> [] then begin
        let tbl, keys =
          match Hashtbl.find_opt qstats r.experiment with
          | Some s -> s
          | None ->
              let s = (Hashtbl.create 4, ref []) in
              Hashtbl.replace qstats r.experiment s;
              s
        in
        List.iter
          (fun (k, x) ->
            if Float.is_finite x then begin
              let s, c =
                match Hashtbl.find_opt tbl k with
                | Some s -> s
                | None ->
                    keys := k :: !keys;
                    (0.0, 0)
              in
              Hashtbl.replace tbl k (s +. x, c + 1)
            end)
          r.quality
      end)
    doc.records;
  let quality_of id =
    match Hashtbl.find_opt qstats id with
    | None -> []
    | Some (tbl, keys) ->
        List.rev_map
          (fun k ->
            let s, c = Hashtbl.find tbl k in
            (k, s /. float_of_int (max 1 c)))
          !keys
  in
  let agg_of exp =
    match Hashtbl.find_opt stats exp.id with
    | None ->
        { exp; rows = 0; mean_ratio = None; worst_ratio = None; quality = [] }
    | Some (rows, sum, n, worst) ->
        {
          exp;
          rows;
          mean_ratio = (if n = 0 then None else Some (sum /. float_of_int n));
          worst_ratio = (if n = 0 then None else Some worst);
          quality = quality_of exp.id;
        }
  in
  let listed = List.map (fun e -> e.id) doc.experiments in
  let extras =
    List.rev !order
    |> List.filter (fun id -> not (List.mem id listed))
    |> List.map (fun id ->
           { id; title = ""; wall_s = None; max_load = None; imbalance = None })
  in
  List.map agg_of (doc.experiments @ extras)

(* --- diff -------------------------------------------------------------- *)

type delta = {
  id : string;
  old_ratio : float;
  new_ratio : float;
  change : float;
}

type diff = {
  threshold : float;
  regressions : delta list;
  improvements : delta list;
  unchanged : delta list;
  only_old : string list;
  only_new : string list;
}

let diff ~threshold ~baseline current =
  let ratios doc =
    aggregate doc
    |> List.filter_map (fun a ->
           match a.mean_ratio with
           | Some r -> Some (a.exp.id, r)
           | None -> None)
  in
  let old_r = ratios baseline and new_r = ratios current in
  let deltas =
    List.filter_map
      (fun (id, new_ratio) ->
        match List.assoc_opt id old_r with
        | None -> None
        | Some old_ratio ->
            let change =
              (new_ratio -. old_ratio) /. Float.max (Float.abs old_ratio) 1e-9
            in
            Some { id; old_ratio; new_ratio; change })
      new_r
  in
  let regressions =
    List.filter (fun d -> d.change > threshold) deltas
    |> List.sort (fun a b -> compare b.change a.change)
  in
  let improvements =
    List.filter (fun d -> d.change < -.threshold) deltas
    |> List.sort (fun a b -> compare a.change b.change)
  in
  let unchanged =
    List.filter (fun d -> Float.abs d.change <= threshold) deltas
  in
  let ids xs = List.map fst xs in
  let only_old =
    List.filter (fun id -> not (List.mem_assoc id new_r)) (ids old_r)
  in
  let only_new =
    List.filter (fun id -> not (List.mem_assoc id old_r)) (ids new_r)
  in
  { threshold; regressions; improvements; unchanged; only_old; only_new }
