module Graph = Cc_graph.Graph
module Json = Cc_obs.Json

type method_ = Methods.t =
  | Cc | Sequential | Doubling | Ab | Wilson | Updown | Determinantal | Biased

type request = {
  id : string option;
  graph : Graph.t;
  k : int;
  seed : int;
  meth : method_;
}

let ( let* ) = Result.bind

let graph_of_json v =
  match v with
  | Json.String s -> (
      try Ok (Graph.of_string s)
      with Invalid_argument m | Failure m -> Error ("bad graph: " ^ m))
  | Json.Obj _ -> (
      let* n =
        match Option.bind (Json.member "n" v) Json.to_float_opt with
        | Some f when Float.is_integer f -> Ok (int_of_float f)
        | _ -> Error "graph object needs an integer \"n\""
      in
      let* edges =
        match Option.bind (Json.member "edges" v) Json.to_list_opt with
        | Some l -> Ok l
        | None -> Error "graph object needs an \"edges\" list"
      in
      let parse_edge e =
        match Json.to_list_opt e with
        | Some ([ _; _ ] as uv) | Some ([ _; _; _ ] as uv) -> (
            match List.map Json.to_float_opt uv with
            | [ Some u; Some v ]
              when Float.is_integer u && Float.is_integer v ->
                Ok (int_of_float u, int_of_float v, 1.0)
            | [ Some u; Some v; Some w ]
              when Float.is_integer u && Float.is_integer v ->
                Ok (int_of_float u, int_of_float v, w)
            | _ -> Error "edge must be [u, v] or [u, v, w] with integer endpoints")
        | _ -> Error "edge must be [u, v] or [u, v, w]"
      in
      let* edges =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* e = parse_edge e in
            Ok (e :: acc))
          (Ok []) edges
      in
      try Ok (Graph.of_edges ~n (List.rev edges))
      with Invalid_argument m -> Error ("bad graph: " ^ m))
  | _ -> Error "\"graph\" must be a string or an object"

let int_field v key ~default =
  match Json.member key v with
  | None -> Ok default
  | Some j -> (
      match Json.to_float_opt j with
      | Some f when Float.is_integer f -> Ok (int_of_float f)
      | _ -> Error (Printf.sprintf "%S must be an integer" key))

let parse_request line =
  let* v =
    match Json.of_string (String.trim line) with
    | Ok v -> Ok v
    | Error m -> Error ("bad request JSON: " ^ m)
  in
  let* () = match v with Json.Obj _ -> Ok () | _ -> Error "request must be a JSON object" in
  let id = Option.bind (Json.member "id" v) Json.to_string_opt in
  let* graph =
    match Json.member "graph" v with
    | None -> Error "request needs a \"graph\""
    | Some g -> graph_of_json g
  in
  let* k = int_field v "k" ~default:1 in
  let* () = if k >= 1 then Ok () else Error "\"k\" must be >= 1" in
  let* seed = int_field v "seed" ~default:0 in
  let* meth =
    match Json.member "method" v with
    | None -> Ok Cc
    | Some j -> (
        match Json.to_string_opt j with
        | Some s -> Methods.of_string s
        | None -> Error "\"method\" must be a string")
  in
  Ok { id; graph; k; seed; meth }

let request_line ?id ~graph ~k ~seed ~meth () =
  let fields =
    [
      ("graph", Json.String (Graph.to_string graph));
      ("k", Json.Int k);
      ("seed", Json.Int seed);
      ("method", Json.String (Methods.name meth));
    ]
  in
  let fields =
    match id with Some i -> ("id", Json.String i) :: fields | None -> fields
  in
  Json.to_string (Json.Obj fields) ^ "\n"

(* --- response lines --- *)

let with_id id fields =
  match id with Some i -> ("id", Json.String i) :: fields | None -> fields

let line fields = Json.to_string (Json.Obj fields) ^ "\n"

let tree_line ?id ~index ~header ~edges () =
  line
    (("type", Json.String "tree")
    :: with_id id
         [
           ("index", Json.Int index);
           ("header", Json.String header);
           ( "edges",
             Json.List
               (List.map
                  (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ])
                  edges) );
         ])

let done_line ?id ~k ~cache_hit ~digest ~rounds () =
  line
    (("type", Json.String "done")
    :: with_id id
         [
           ("k", Json.Int k);
           ("cache", Json.String (if cache_hit then "hit" else "miss"));
           ("digest", Json.String digest);
           ("rounds", Json.float_opt rounds);
         ])

let error_line ?id message =
  line (("type", Json.String "error") :: with_id id [ ("message", Json.String message) ])

(* --- client-side parsing --- *)

type response =
  | Tree of { id : string option; index : int; header : string;
              edges : (int * int) list }
  | Done of { id : string option; k : int; cache_hit : bool;
              digest : string; rounds : float }
  | Error of { id : string option; message : string }

let parse_response s =
  let* v =
    match Json.of_string (String.trim s) with
    | Ok v -> Ok v
    | Error m -> Error ("bad response JSON: " ^ m)
  in
  let id = Option.bind (Json.member "id" v) Json.to_string_opt in
  let str key =
    match Option.bind (Json.member key v) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "response missing %S" key)
  in
  let int key =
    match Option.bind (Json.member key v) Json.to_float_opt with
    | Some f when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "response missing integer %S" key)
  in
  let* ty = str "type" in
  match ty with
  | "tree" ->
      let* index = int "index" in
      let* header = str "header" in
      let* edges =
        match Option.bind (Json.member "edges" v) Json.to_list_opt with
        | None -> Error "tree response missing \"edges\""
        | Some l ->
            List.fold_left
              (fun acc e ->
                let* acc = acc in
                match Option.map (List.map Json.to_float_opt) (Json.to_list_opt e) with
                | Some [ Some u; Some v ] ->
                    Ok ((int_of_float u, int_of_float v) :: acc)
                | _ -> Error "tree edge must be [u, v]")
              (Ok []) l
            |> Result.map List.rev
      in
      Ok (Tree { id; index; header; edges })
  | "done" ->
      let* k = int "k" in
      let* cache = str "cache" in
      let* digest = str "digest" in
      let rounds =
        match Option.bind (Json.member "rounds" v) Json.to_float_opt with
        | Some r -> r
        | None -> 0.0
      in
      Ok (Done { id; k; cache_hit = String.equal cache "hit"; digest; rounds })
  | "error" ->
      let* message = str "message" in
      Ok (Error { id; message })
  | ty -> Stdlib.Error (Printf.sprintf "unknown response type %S" ty)
