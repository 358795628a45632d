(* Flight recorder: a canonical, bounded, digest-chained log of every
   primitive a Net books.

   Each record is written to one compact JSON line the moment it is added,
   and the running digest is an FNV-1a 64-bit fold over those exact line
   bytes (header line first, then every record line, in order). Two runs
   therefore agree on the digest iff they agree on every serialized byte of
   every event — and a reloaded log can re-fold the raw lines it read and
   verify the trailer without ever re-serializing a float.

   One writer ([write_record]) defines the record line for both the digest
   and the export. It appends straight into a growable byte buffer, so
   [add] builds no JSON tree and no intermediate string: the recorder folds
   its own buffer in place and reuses it for the next line. *)

type record = {
  seq : int;
  kind : string;
  label : string;
  round_start : float;
  round_end : float;
  rounds : float;
  messages : int;
  words : int;
  max_load : int;
  sent : int array;
  recv : int array;
  retransmits : int;
  dropped : int;
}

(* An append-only byte buffer whose bytes can be folded in place (a
   [Buffer.t] only hands them out as a fresh copy). [last_float] is the
   last value written through ["%.12g"] and [last_text] its bytes: a
   record's [round_start] is usually the previous record's [round_end]. *)
type out = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable last_float : float;
  mutable last_text : string;
}

type t = {
  machines : int;
  max_records : int;
  line : out;  (* the buffer [add] writes each line into *)
  mutable rev_records : record list;
  mutable stored : int;
  mutable total : int;
  mutable digest : int64;
}

(* --- FNV-1a, 64-bit --- *)

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* A plain loop, so the accumulator stays an unboxed register. *)
let fnv64_prefix h s len =
  let h = ref h in
  for i = 0 to len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let fnv64 h s = fnv64_prefix h s (String.length s)

(* --- canonical serialization --- *)

let out_create size =
  { bytes = Bytes.create size; len = 0; last_float = 0.0; last_text = "0" }

let out_grow o k =
  let bytes = Bytes.create (max (o.len + k) (2 * Bytes.length o.bytes)) in
  Bytes.blit o.bytes 0 bytes 0 o.len;
  o.bytes <- bytes

let out_reserve o k = if o.len + k > Bytes.length o.bytes then out_grow o k

let out_char o c =
  out_reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

let out_string o s =
  let k = String.length s in
  out_reserve o k;
  Bytes.unsafe_blit_string s 0 o.bytes o.len k;
  o.len <- o.len + k

(* Decimal digits of [-n] for [n <= 0], written from the last one back;
   counting on the negative side makes [min_int] safe. *)
let out_neg_digits o n =
  let k = ref 1 and m = ref n in
  while !m <= -10 do
    incr k;
    m := !m / 10
  done;
  out_reserve o !k;
  let m = ref n in
  for p = o.len + !k - 1 downto o.len do
    Bytes.unsafe_set o.bytes p (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  o.len <- o.len + !k

(* [string_of_int i]. *)
let out_int o i =
  if i < 0 then begin
    out_char o '-';
    out_neg_digits o i
  end
  else out_neg_digits o (-i)

(* The C primitive behind [Printf.sprintf "%.12g"], without the format
   interpretation around it: same bytes, half the cost. *)
external format_float : string -> float -> string = "caml_format_float"

(* ["%.12g"] of [x], read off [text], the bytes of [from], when x - from is
   a positive integer k and [text] is a fixed-point number of 2 to 11
   integer digits whose integer part stays that long after adding k.
   Rounding x to 12 significant digits then rounds at the same decimal
   place u = 10^(X - 11), X + 1 the digit count, and x / u = from / u +
   k / u with k / u an even integer, so even a tie rounds alike: the
   printed value is the old one plus k, with the same fractional digits.
   [None] when any condition fails. *)
let shifted ~from text x =
  let d = x -. from in
  (* Sterbenz: from <= x <= 2 from makes the subtraction exact. *)
  if not (from > 0.0 && x <= 2.0 *. from && d >= 1.0 && Float.is_integer d)
  then None
  else
    match String.index_opt text '.' with
    | Some dot
      when dot >= 2 && dot <= 11 && text.[0] <> '0'
           && String.for_all (fun c -> c >= '0' && c <= '9')
                (String.sub text 0 dot) ->
        let whole =
          string_of_int (int_of_string (String.sub text 0 dot) + int_of_float d)
        in
        if String.length whole <> dot then None
        else Some (whole ^ String.sub text dot (String.length text - dot))
    | _ -> None

(* [Json.Float]'s bytes: [null] when not finite, [%.1f] for an integral
   value below 1e15 (its digits, then [.0]; [-0.0] keeps its sign), and
   [%.12g] otherwise. *)
let out_float o x =
  if not (Float.is_finite x) then out_string o "null"
  else if Float.is_integer x && Float.abs x < 1e15 then begin
    if Float.sign_bit x then out_char o '-';
    out_neg_digits o (-int_of_float (Float.abs x));
    out_string o ".0"
  end
  else begin
    (* [x] is finite and not an integer, so [=] compares its bits. *)
    if x <> o.last_float then begin
      o.last_text <-
        (match shifted ~from:o.last_float o.last_text x with
        | Some text -> text
        | None -> format_float "%.12g" x);
      o.last_float <- x
    end;
    out_string o o.last_text
  end

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* [Json.String]'s bytes: verbatim unless some byte needs an escape. *)
let out_json_string o s =
  out_char o '"';
  out_string o (if String.exists needs_escape s then Json.escape s else s);
  out_char o '"'

let out_ints o a =
  out_char o '[';
  for i = 0 to Array.length a - 1 do
    if i > 0 then out_char o ',';
    out_int o (Array.unsafe_get a i)
  done;
  out_char o ']'

let header_line ~machines =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.String "recorder");
         ("version", Json.Int 1);
         ("machines", Json.Int machines);
       ])

(* The record line, without its newline. Field order and bytes are the
   digest contract. *)
let write_record o ~seq ~kind ~label ~round_start ~round_end ~rounds
    ~messages ~words ~max_load ~sent ~recv ~retransmits ~dropped =
  out_string o {|{"type":"record","seq":|};
  out_int o seq;
  out_string o {|,"kind":|};
  out_json_string o kind;
  out_string o {|,"label":|};
  out_json_string o label;
  out_string o {|,"round_start":|};
  out_float o round_start;
  out_string o {|,"round_end":|};
  out_float o round_end;
  out_string o {|,"rounds":|};
  out_float o rounds;
  out_string o {|,"messages":|};
  out_int o messages;
  out_string o {|,"words":|};
  out_int o words;
  out_string o {|,"max_load":|};
  out_int o max_load;
  out_string o {|,"sent":|};
  out_ints o sent;
  out_string o {|,"recv":|};
  out_ints o recv;
  out_string o {|,"retransmits":|};
  out_int o retransmits;
  out_string o {|,"dropped":|};
  out_int o dropped;
  out_char o '}'

(* --- construction --- *)

let create ?(max_records = 200_000) ~machines () =
  if machines < 1 then invalid_arg "Recorder.create: machines must be >= 1";
  if max_records < 0 then invalid_arg "Recorder.create: negative max_records";
  {
    machines;
    max_records;
    line = out_create 256;
    rev_records = [];
    stored = 0;
    total = 0;
    digest = fnv64 fnv_basis (header_line ~machines);
  }

let add t ~kind ~label ~rounds ~round_end ~messages ~words ~max_load ~sent
    ~recv ~retransmits ~dropped =
  if
    Array.length sent <> Array.length recv
    || (Array.length sent <> 0 && Array.length sent <> t.machines)
  then
    invalid_arg
      "Recorder.add: per-machine arrays must be empty or one slot per machine";
  let seq = t.total and round_start = round_end -. rounds in
  let o = t.line in
  o.len <- 0;
  write_record o ~seq ~kind ~label ~round_start ~round_end ~rounds ~messages
    ~words ~max_load ~sent ~recv ~retransmits ~dropped;
  t.digest <- fnv64_prefix t.digest (Bytes.unsafe_to_string o.bytes) o.len;
  t.total <- t.total + 1;
  if t.stored < t.max_records then begin
    t.rev_records <-
      {
        seq;
        kind;
        label;
        round_start;
        round_end;
        rounds;
        messages;
        words;
        max_load;
        sent = Array.copy sent;
        recv = Array.copy recv;
        retransmits;
        dropped;
      }
      :: t.rev_records;
    t.stored <- t.stored + 1
  end

(* --- inspection --- *)

let machines t = t.machines
let records t = List.rev t.rev_records
let total t = t.total
let stored t = t.stored
let dropped_records t = t.total - t.stored
let digest_hex t = Printf.sprintf "fnv64:%016Lx" t.digest

(* --- JSONL export / reload --- *)

let to_jsonl t =
  let o = out_create 4096 in
  out_string o (header_line ~machines:t.machines);
  out_char o '\n';
  List.iter
    (fun
      {
        seq;
        kind;
        label;
        round_start;
        round_end;
        rounds;
        messages;
        words;
        max_load;
        sent;
        recv;
        retransmits;
        dropped;
      }
    ->
      write_record o ~seq ~kind ~label ~round_start ~round_end ~rounds
        ~messages ~words ~max_load ~sent ~recv ~retransmits ~dropped;
      out_char o '\n')
    (records t);
  out_string o
    (Json.to_string
       (Json.Obj
          [
            ("type", Json.String "digest");
            ("digest", Json.String (digest_hex t));
            ("records", Json.Int t.total);
            ("stored", Json.Int t.stored);
          ]));
  out_char o '\n';
  Bytes.sub_string o.bytes 0 o.len

type loaded = {
  log : t;
  trailer_digest : string option;
  trailer_records : int option;
}

let member_int key v =
  match Json.member key v with
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let member_float key v = Option.bind (Json.member key v) Json.to_float_opt
let member_str key v = Option.bind (Json.member key v) Json.to_string_opt

let member_ints key v =
  match Json.member key v with
  | Some (Json.List xs) ->
      let ok = ref true in
      let arr =
        Array.of_list
          (List.map
             (function
               | Json.Int i -> i
               | Json.Float f when Float.is_integer f -> int_of_float f
               | _ ->
                   ok := false;
                   0)
             xs)
      in
      if !ok then Some arr else None
  | _ -> None

let of_jsonl s =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let parse_line i l =
    match Json.of_string l with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "line %d: %s" (i + 1) msg)
  in
  match lines with
  | [] -> Error "empty recorder log"
  | header :: rest ->
      let* hv = parse_line 0 header in
      if member_str "type" hv <> Some "recorder" then
        Error "not a recorder log (missing recorder header)"
      else if member_int "version" hv <> Some 1 then
        Error "unsupported recorder log version"
      else
        let* machines =
          match member_int "machines" hv with
          | Some m when m >= 1 -> Ok m
          | _ -> Error "recorder header: bad machines field"
        in
        let t =
          {
            machines;
            max_records = List.length rest;
            line = out_create 0;
            rev_records = [];
            stored = 0;
            total = 0;
            digest = fnv64 fnv_basis header;
          }
        in
        let trailer_digest = ref None and trailer_records = ref None in
        let parse_record i line v =
          let req name = function
            | Some x -> Ok x
            | None ->
                Error
                  (Printf.sprintf "line %d: record missing field %s" (i + 1)
                     name)
          in
          let* seq = req "seq" (member_int "seq" v) in
          let* kind = req "kind" (member_str "kind" v) in
          let* label = req "label" (member_str "label" v) in
          let* round_start = req "round_start" (member_float "round_start" v) in
          let* round_end = req "round_end" (member_float "round_end" v) in
          let* rounds = req "rounds" (member_float "rounds" v) in
          let* messages = req "messages" (member_int "messages" v) in
          let* words = req "words" (member_int "words" v) in
          let* max_load = req "max_load" (member_int "max_load" v) in
          let* sent = req "sent" (member_ints "sent" v) in
          let* recv = req "recv" (member_ints "recv" v) in
          let* retransmits = req "retransmits" (member_int "retransmits" v) in
          let* dropped = req "dropped" (member_int "dropped" v) in
          t.rev_records <-
            {
              seq;
              kind;
              label;
              round_start;
              round_end;
              rounds;
              messages;
              words;
              max_load;
              sent;
              recv;
              retransmits;
              dropped;
            }
            :: t.rev_records;
          t.stored <- t.stored + 1;
          t.total <- t.total + 1;
          (* The digest chain folds the raw line bytes exactly as read, so
             verification is immune to float re-serialization drift. *)
          t.digest <- fnv64 t.digest line;
          Ok ()
        in
        let rec go i = function
          | [] -> Ok ()
          | line :: rest -> (
              let* v = parse_line i line in
              match member_str "type" v with
              | Some "record" ->
                  let* () = parse_record i line v in
                  go (i + 1) rest
              | Some "digest" ->
                  trailer_digest := member_str "digest" v;
                  trailer_records := member_int "records" v;
                  if rest <> [] then
                    Error
                      (Printf.sprintf "line %d: lines after digest trailer"
                         (i + 2))
                  else Ok ()
              | _ -> Error (Printf.sprintf "line %d: unknown line type" (i + 1))
              )
        in
        let* () = go 1 rest in
        Ok
          {
            log = t;
            trailer_digest = !trailer_digest;
            trailer_records = !trailer_records;
          }

let verify { log; trailer_digest; trailer_records } =
  match trailer_digest with
  | None -> Error "missing digest trailer"
  | Some d ->
      if trailer_records <> Some log.total then
        Error
          (Printf.sprintf
             "log is truncated (%d of %s records stored); digest not \
              verifiable"
             log.total
             (match trailer_records with
             | Some r -> string_of_int r
             | None -> "?"))
      else if String.equal (digest_hex log) d then Ok d
      else
        Error
          (Printf.sprintf "digest mismatch: trailer says %s, recomputed %s" d
             (digest_hex log))

(* --- divergence diffing --- *)

type divergence = { seq : int; field : string; a : string; b : string }

let pp_ints a =
  "["
  ^ String.concat " " (Array.to_list (Array.map string_of_int a))
  ^ "]"

let diff_record ra rb =
  let fields =
    [
      ("kind", ra.kind, rb.kind);
      ("label", ra.label, rb.label);
      ( "rounds",
        Printf.sprintf "%.17g" ra.rounds,
        Printf.sprintf "%.17g" rb.rounds );
      ( "round_start",
        Printf.sprintf "%.17g" ra.round_start,
        Printf.sprintf "%.17g" rb.round_start );
      ( "round_end",
        Printf.sprintf "%.17g" ra.round_end,
        Printf.sprintf "%.17g" rb.round_end );
      ("messages", string_of_int ra.messages, string_of_int rb.messages);
      ("words", string_of_int ra.words, string_of_int rb.words);
      ("max_load", string_of_int ra.max_load, string_of_int rb.max_load);
      ("sent", pp_ints ra.sent, pp_ints rb.sent);
      ("recv", pp_ints ra.recv, pp_ints rb.recv);
      ( "retransmits",
        string_of_int ra.retransmits,
        string_of_int rb.retransmits );
      ("dropped", string_of_int ra.dropped, string_of_int rb.dropped);
    ]
  in
  List.find_map
    (fun (field, a, b) ->
      if String.equal a b then None else Some { seq = ra.seq; field; a; b })
    fields

let diff ta tb =
  if ta.machines <> tb.machines then
    Some
      {
        seq = -1;
        field = "machines";
        a = string_of_int ta.machines;
        b = string_of_int tb.machines;
      }
  else
    let rec go ra rb =
      match (ra, rb) with
      | [], [] -> None
      | (r : record) :: _, [] ->
          Some
            {
              seq = r.seq;
              field = "presence";
              a = r.kind ^ " " ^ r.label;
              b = "absent";
            }
      | [], (r : record) :: _ ->
          Some
            {
              seq = r.seq;
              field = "presence";
              a = "absent";
              b = r.kind ^ " " ^ r.label;
            }
      | r1 :: rest1, r2 :: rest2 -> (
          match diff_record r1 r2 with
          | Some d -> Some d
          | None -> go rest1 rest2)
    in
    go (records ta) (records tb)

(* --- ASCII per-round timeline --- *)

let intensity = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let timeline ?(width = 64) t =
  let width = max 8 width in
  let rs = records t in
  let span = List.fold_left (fun acc r -> Float.max acc r.round_end) 0.0 rs in
  if rs = [] || span <= 0.0 then "recorder timeline: no rounds booked\n"
  else begin
    let bucket = span /. float_of_int width in
    (* Per label (in first-appearance order): rounds of overlap with each
       of the [width] equal buckets of the run's round interval. *)
    let order = ref [] in
    let mass : (string, float array) Hashtbl.t = Hashtbl.create 16 in
    let lane label =
      match Hashtbl.find_opt mass label with
      | Some m -> m
      | None ->
          let m = Array.make width 0.0 in
          Hashtbl.add mass label m;
          order := label :: !order;
          m
    in
    List.iter
      (fun r ->
        if r.rounds > 0.0 then begin
          let m = lane r.label in
          let b0 = max 0 (int_of_float (r.round_start /. bucket)) in
          let b1 =
            min (width - 1)
              (int_of_float ((r.round_end -. (bucket *. 1e-9)) /. bucket))
          in
          for b = b0 to b1 do
            let lo = Float.max r.round_start (float_of_int b *. bucket)
            and hi = Float.min r.round_end (float_of_int (b + 1) *. bucket) in
            if hi > lo then m.(b) <- m.(b) +. (hi -. lo)
          done
        end)
      rs;
    let labels = List.rev !order in
    let name_w =
      List.fold_left (fun acc l -> max acc (String.length l)) 5 labels
      |> min 28
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "per-round timeline: %.1f rounds, %d records, %d buckets of %.2f \
          rounds\n"
         span t.total width bucket);
    List.iter
      (fun label ->
        let m = Hashtbl.find mass label in
        let short =
          if String.length label <= name_w then label
          else String.sub label 0 (name_w - 1) ^ "~"
        in
        Buffer.add_string buf (Printf.sprintf "%-*s |" name_w short);
        Array.iter
          (fun v ->
            if v <= 0.0 then Buffer.add_char buf ' '
            else begin
              let frac = Float.min 1.0 (v /. bucket) in
              let i =
                min
                  (Array.length intensity - 1)
                  (int_of_float (frac *. float_of_int (Array.length intensity)))
              in
              Buffer.add_char buf intensity.(i)
            end)
          m;
        Buffer.add_string buf "|\n")
      labels;
    Buffer.add_string buf
      (Printf.sprintf "%-*s |%s|\n" name_w "round"
         (let axis = Bytes.make width '-' in
          Bytes.set axis 0 '0';
          let last = Printf.sprintf "%.0f" span in
          if String.length last < width - 2 then
            Bytes.blit_string last 0 axis (width - String.length last)
              (String.length last);
          Bytes.to_string axis));
    Buffer.contents buf
  end
