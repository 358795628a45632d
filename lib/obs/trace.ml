type span = {
  id : int;
  name : string;
  args : (string * string) list;
  depth : int;
  start_ts : float;
  mutable stop_ts : float;
  mutable alloc_words : float;
  mutable net_rounds : float;
  mutable net_messages : int;
  mutable net_words : int;
  mutable net_max_load : int;
  mutable children : span list;
}

(* An open span carries its GC snapshot; the exported [span] record is filled
   in at close time. *)
type open_span = { span : span; alloc_at_open : float }

type t = {
  clock : unit -> float;
  mutable next_id : int;
  mutable stack : open_span list; (* innermost first *)
  mutable roots : span list; (* completed, reversed *)
  mutable bookings : int;
}

let create ?(clock = Unix.gettimeofday) ?max_events:(_ : int option) () =
  { clock; next_id = 0; stack = []; roots = []; bookings = 0 }

let active : t option ref = ref None
let enabled () = !active <> None

let with_trace t f =
  let prev = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := prev) f

(* Words allocated so far, counting a promoted word once. [Gc.minor_words]
   includes the current minor heap's allocation, where [Gc.quick_stat]'s
   count advances only at a minor collection. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let push_span t ~name ~args =
  let id = t.next_id in
  t.next_id <- id + 1;
  let sp =
    {
      id;
      name;
      args;
      depth = List.length t.stack;
      start_ts = t.clock ();
      stop_ts = Float.nan;
      alloc_words = 0.0;
      net_rounds = 0.0;
      net_messages = 0;
      net_words = 0;
      net_max_load = 0;
      children = [];
    }
  in
  t.stack <- { span = sp; alloc_at_open = allocated_words () } :: t.stack

let pop_span t =
  match t.stack with
  | [] -> () (* unbalanced close: collector was swapped mid-span; ignore *)
  | { span = sp; alloc_at_open } :: rest ->
      sp.stop_ts <- t.clock ();
      sp.alloc_words <- allocated_words () -. alloc_at_open;
      sp.children <- List.rev sp.children;
      t.stack <- rest;
      (match rest with
      | { span = parent; _ } :: _ -> parent.children <- sp :: parent.children
      | [] -> t.roots <- sp :: t.roots)

let with_span ?(args = []) name f =
  match !active with
  | None -> f ()
  | Some t ->
      push_span t ~name ~args;
      Fun.protect ~finally:(fun () -> pop_span t) f

let net_event ~rounds ~messages ~words ~max_load =
  match !active with
  | None -> ()
  | Some t ->
      List.iter
        (fun { span = sp; _ } ->
          sp.net_rounds <- sp.net_rounds +. rounds;
          sp.net_messages <- sp.net_messages + messages;
          sp.net_words <- sp.net_words + words;
          sp.net_max_load <- max sp.net_max_load max_load)
        t.stack;
      t.bookings <- t.bookings + 1

let roots t = List.rev t.roots
let dropped_events t = t.bookings

let sum f spans = List.fold_left (fun a sp -> a +. f sp) 0.0 spans
let span_wall sp =
  if Float.is_nan sp.stop_ts then 0.0 else sp.stop_ts -. sp.start_ts

(* --- self time --- *)

type self_row = {
  span : string;
  self_s : float;
  self_alloc : float;
  self_rounds : float;
  share : float;
}

type self_times = {
  total_s : float;
  covered_s : float;
  gap_s : float;
  rows : self_row list;
}

let completed sp = (not (Float.is_nan sp.stop_ts)) && sp.stop_ts >= sp.start_ts
let wall sp = if completed sp then sp.stop_ts -. sp.start_ts else 0.0

let self_times t =
  let by_name = Hashtbl.create 32 in
  let first = ref Float.infinity and last = ref Float.neg_infinity in
  let rec visit sp =
    if completed sp then begin
      first := Float.min !first sp.start_ts;
      last := Float.max !last sp.stop_ts;
      let s, a, r =
        Option.value ~default:(0.0, 0.0, 0.0) (Hashtbl.find_opt by_name sp.name)
      in
      let kids f = sum f sp.children in
      Hashtbl.replace by_name sp.name
        ( s +. (wall sp -. kids wall),
          a +. (sp.alloc_words -. kids (fun c -> c.alloc_words)),
          r +. Float.max 0.0 (sp.net_rounds -. kids (fun c -> c.net_rounds)) )
    end;
    List.iter visit sp.children
  in
  List.iter visit (roots t);
  let total_s = if Hashtbl.length by_name = 0 then 0.0 else !last -. !first in
  let row span (self_s, self_alloc, self_rounds) rows =
    let share = if total_s > 0.0 then self_s /. total_s else 0.0 in
    { span; self_s; self_alloc; self_rounds; share } :: rows
  in
  let by_self a b = compare (b.self_s, a.span) (a.self_s, b.span) in
  let covered_s = sum wall (roots t) in
  let rows = List.sort by_self (Hashtbl.fold row by_name []) in
  { total_s; covered_s; gap_s = total_s -. covered_s; rows }

let self_share rows ~name =
  match List.find_opt (fun r -> r.span = name) rows with
  | Some r -> r.share
  | None -> 0.0

(* --- exporters --- *)

let human_words w =
  if w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let human_time s =
  if s >= 1.0 then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let pp_tree fmt t =
  let rec pp sp =
    let pad = String.make (2 * sp.depth) ' ' in
    let args =
      match sp.args with
      | [] -> ""
      | args ->
          "[" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) args)
          ^ "]"
    in
    Format.fprintf fmt
      "%s%-*s %s %8s %9s %10.1f rounds %8d msgs %10d words %8d peak@," pad
      (max 1 (36 - (2 * sp.depth)))
      sp.name args
      (human_time (span_wall sp))
      (human_words sp.alloc_words)
      sp.net_rounds sp.net_messages sp.net_words sp.net_max_load;
    List.iter pp sp.children
  in
  Format.fprintf fmt "@[<v>";
  List.iter pp (roots t);
  Format.fprintf fmt "@]"

(* Chrome trace_event timestamps are microseconds; use the earliest span
   start as the origin so traces start near 0. *)
let origin t =
  let starts =
    List.filter
      (fun x -> not (Float.is_nan x))
      (List.map (fun sp -> sp.start_ts) t.roots)
  in
  match starts with [] -> 0.0 | x :: rest -> List.fold_left Float.min x rest

let to_chrome_json t =
  let t0 = origin t in
  let us x = (x -. t0) *. 1e6 in
  let acc = ref [] in
  let rec span_events sp =
    acc :=
      Json.Obj
        [
          ("name", Json.String sp.name);
          ("cat", Json.String "span");
          ("ph", Json.String "X");
          ("ts", Json.float_opt (us sp.start_ts));
          ("dur", Json.float_opt (Float.max 0.01 (span_wall sp *. 1e6)));
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ( "args",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.String v)) sp.args
              @ [
                  ("id", Json.Int sp.id);
                  ("rounds", Json.float_opt sp.net_rounds);
                  ("messages", Json.Int sp.net_messages);
                  ("words", Json.Int sp.net_words);
                  ("max_load", Json.Int sp.net_max_load);
                  ("alloc_words", Json.float_opt sp.alloc_words);
                ]) );
        ]
      :: !acc;
    List.iter span_events sp.children
  in
  List.iter span_events (roots t);
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.rev !acc));
         ("displayTimeUnit", Json.String "ms");
       ])

let to_jsonl t =
  let t0 = origin t in
  let buf = Buffer.create 4096 in
  let line v =
    Buffer.add_string buf (Json.to_string v);
    Buffer.add_char buf '\n'
  in
  let rec span_lines sp =
    line
      (Json.Obj
         [
           ("type", Json.String "span");
           ("id", Json.Int sp.id);
           ("name", Json.String sp.name);
           ("depth", Json.Int sp.depth);
           ( "args",
             Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) sp.args) );
           ("start_s", Json.float_opt (sp.start_ts -. t0));
           ("wall_s", Json.float_opt (span_wall sp));
           ("alloc_words", Json.float_opt sp.alloc_words);
           ("rounds", Json.float_opt sp.net_rounds);
           ("messages", Json.Int sp.net_messages);
           ("words", Json.Int sp.net_words);
           ("max_load", Json.Int sp.net_max_load);
         ]);
    List.iter span_lines sp.children
  in
  List.iter span_lines (roots t);
  Buffer.contents buf

(* --- reload --- *)

let ( let* ) = Result.bind

let to_args = function
  | Json.Obj kvs ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | (k, Json.String v) :: rest -> go ((k, v) :: acc) rest
        | _ -> None
      in
      go [] kvs
  | _ -> None

let span_of_json j =
  let* id = Json.int_field "id" j in
  let* name = Json.string_field "name" j in
  let* depth = Json.int_field "depth" j in
  let* args = Json.field "an object of strings" to_args "args" j in
  let* start_ts = Json.float_field "start_s" j in
  let* wall = Json.float_field "wall_s" j in
  let* alloc_words = Json.float_field "alloc_words" j in
  let* net_rounds = Json.float_field "rounds" j in
  let* net_messages = Json.int_field "messages" j in
  let* net_words = Json.int_field "words" j in
  let* net_max_load = Json.int_field "max_load" j in
  Ok
    {
      id;
      name;
      args;
      depth;
      start_ts;
      stop_ts = start_ts +. wall;
      alloc_words;
      net_rounds;
      net_messages;
      net_words;
      net_max_load;
      children = [];
    }

let of_jsonl s =
  let t = create () in
  (* The fold carries the stack of open ancestors, innermost first, for
     rebuilding the tree from the depth-first flattening. Children are
     accumulated reversed and flipped once the whole artifact is read. *)
  let add_line stack _raw j =
    match Json.member "type" j with
    | Some (Json.String "span") ->
        let* sp = span_of_json j in
        t.next_id <- max t.next_id (sp.id + 1);
        let rec unwind = function
          | top :: rest when top.depth >= sp.depth -> unwind rest
          | st -> st
        in
        let stack = unwind stack in
        (match stack with
        | parent :: _ -> parent.children <- sp :: parent.children
        | [] -> t.roots <- sp :: t.roots);
        Ok (sp :: stack)
    | Some (Json.String "event") -> Ok stack (* net events of older artifacts *)
    | Some (Json.String other) ->
        Error (Printf.sprintf "unknown line type %S" other)
    | _ -> Error "line has no \"type\" field"
  in
  let rec fix sp =
    sp.children <- List.rev sp.children;
    List.iter fix sp.children
  in
  let* _ = Json.fold_lines add_line [] s in
  List.iter fix t.roots;
  Ok t
