type event = {
  seq : int;
  t_s : float;
  kind : string;
  worker : int option;
  round : float;
  cause : string;
}

type t = {
  cap : int;
  clock : unit -> float;
  t0 : float;
  q : event Queue.t;
  mutable next_seq : int;
  mutable n_dropped : int;
}

let create ?(cap = 4096) ?(clock = Unix.gettimeofday) () =
  { cap = max 1 cap; clock; t0 = clock (); q = Queue.create (); next_seq = 0; n_dropped = 0 }

let record t ?worker ?(round = 0.) ?(cause = "") kind =
  let e =
    { seq = t.next_seq; t_s = t.clock () -. t.t0; kind; worker; round; cause }
  in
  t.next_seq <- t.next_seq + 1;
  Queue.push e t.q;
  while Queue.length t.q > t.cap do
    ignore (Queue.pop t.q);
    t.n_dropped <- t.n_dropped + 1
  done

let events t = List.of_seq (Queue.to_seq t.q)
let length t = Queue.length t.q
let dropped t = t.n_dropped

(* --- serialization --- *)

let event_to_json e =
  let opt name = function None -> [] | Some i -> [ (name, Json.Int i) ] in
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("t_s", Json.float_opt e.t_s);
       ("kind", Json.String e.kind);
     ]
    @ opt "worker" e.worker
    @ [ ("round", Json.float_opt e.round) ]
    @ (if e.cause = "" then [] else [ ("cause", Json.String e.cause) ]))

let event_of_json v =
  let ( let* ) = Result.bind in
  let int_field name =
    match Json.member name v with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "field %S: expected int" name)
  in
  let int_opt name =
    match Json.member name v with Some (Json.Int i) -> Some i | _ -> None
  in
  let float_field name =
    match Option.bind (Json.member name v) Json.to_float_opt with
    | Some f -> f
    | None -> 0.
  in
  let* seq = int_field "seq" in
  let* kind =
    match Option.bind (Json.member "kind" v) Json.to_string_opt with
    | Some k -> Ok k
    | None -> Error "field \"kind\": expected string"
  in
  let cause =
    Option.value ~default:""
      (Option.bind (Json.member "cause" v) Json.to_string_opt)
  in
  Ok
    {
      seq;
      t_s = float_field "t_s";
      kind;
      worker = int_opt "worker";
      round = float_field "round";
      cause;
    }

let to_jsonl t =
  let buf = Buffer.create 1024 in
  Queue.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    t.q;
  Buffer.contents buf

let of_jsonl s =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | [ l ] when Result.is_error (Json.of_string l) && acc <> [] ->
        (* Torn tail: a journal whose writer was killed mid-append ends in a
           truncated line that isn't JSON at all. Salvage the clean prefix.
           A *parseable* line of the wrong shape still errors below — that
           distinguishes truncation from feeding a non-journal file. *)
        Ok (List.rev acc)
    | l :: rest ->
        let* v =
          match Json.of_string l with
          | Ok v -> Ok v
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        in
        let* e =
          match event_of_json v with
          | Ok e -> Ok e
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        in
        go (e :: acc) (lineno + 1) rest
  in
  go [] 1 lines
