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
   [add] builds no JSON tree and no intermediate string, and it folds the
   line into the digest as it writes it: each constant key in O(1) through
   its table, every other byte one at a time. A stored record is the one
   [add] was handed: the net never touches it again. *)

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

(* The ["%.12g"] text of the last value written through a slot: the first
   [len] bytes of [text], rewritten in place. *)
type slot = { mutable value : float; text : Bytes.t; mutable len : int }

(* An append-only byte buffer whose bytes can be folded in place (a
   [Buffer.t] only hands them out as a fresh copy), with two slots: [clock]
   for the round clock, since a record's [round_start] is usually the
   previous record's [round_end], and [amount] for its [rounds], since a
   fractional charge usually repeats an earlier one. [hash] holds, as 8
   native-endian bytes so that it is never boxed, the FNV-1a state that
   [write_record] folds the line into. *)
type out = {
  mutable bytes : Bytes.t;
  mutable len : int;
  clock : slot;
  amount : slot;
  hash : Bytes.t;
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
let fnv64 h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* A constant string folded in O(1). One FNV-1a step maps h to
   (h xor b)·p, and the xor moves only h's low byte: h xor b =
   h + ((h land 0xff) xor b) - (h land 0xff). So a step is p·h plus a term
   of h's low byte alone, and the low byte of its result depends on h's low
   byte alone; by induction, folding c maps h to p^|c|·h + k_c(h land 0xff)
   (mod 2^64), where k_c(x) = fold_c(x) - p^|c|·x. [offsets] holds k_c's
   256 values, 8 bytes each. *)
type key = { text : string; scale : int64; offsets : Bytes.t }

let key text =
  let scale = ref 1L in
  String.iter (fun _ -> scale := Int64.mul !scale fnv_prime) text;
  let scale = !scale and offsets = Bytes.create (256 * 8) in
  for x = 0 to 255 do
    let h = Int64.of_int x in
    set64 offsets (8 * x) (Int64.sub (fnv64 h text) (Int64.mul scale h))
  done;
  { text; scale; offsets }

(* --- canonical serialization --- *)

(* ["%.12g"] is at most 19 bytes: a sign, 12 digits, a point and a
   four-byte exponent. *)
let slot_create () = { value = 0.0; text = Bytes.make 32 '0'; len = 1 }

let out_create size =
  {
    bytes = Bytes.create size;
    len = 0;
    clock = slot_create ();
    amount = slot_create ();
    hash = Bytes.make 8 '\000';
  }

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

(* Fold the bytes written since [start] into the line's hash, in a loop of
   its own so that the state stays unboxed. *)
let fold_since o start =
  let s = Bytes.unsafe_to_string o.bytes in
  let h = ref (get64 o.hash 0) in
  for i = start to o.len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  set64 o.hash 0 !h

(* Write a constant key and fold it through its table. *)
let out_key o k =
  out_string o k.text;
  let h = get64 o.hash 0 in
  set64 o.hash 0
    (Int64.add (Int64.mul k.scale h)
       (get64 k.offsets (8 * (Int64.to_int h land 0xff))))

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
  if i >= 0 && i < 10 then out_char o (Char.unsafe_chr (48 + i))
  else if i < 0 then begin
    out_char o '-';
    out_neg_digits o i
  end
  else out_neg_digits o (-i)

(* The C primitive behind [Printf.sprintf "%.12g"], without the format
   interpretation around it: same bytes, half the cost. *)
external format_float : string -> float -> string = "caml_format_float"

let is_digit c = c >= '0' && c <= '9'

(* ["%.12g"] of [x], read off the slot's text, the bytes of [from], its
   value, when x - from is a positive integer k and the text is a
   fixed-point number of 2 to 11 integer digits whose integer part stays
   that long after adding k. Rounding x to 12 significant digits then
   rounds at the same decimal place u = 10^(X - 11), X + 1 the digit count,
   and x / u = from / u + k / u with k / u an even integer, so even a tie
   rounds alike: the printed value is the old one plus k, with the same
   fractional digits. Then the new integer digits overwrite the old ones in
   place and the result is [true]; [false], with the text untouched, when
   any condition fails. *)
let shift_in_place c x =
  let from = c.value in
  let d = x -. from in
  (* Sterbenz: from <= x <= 2 from makes the subtraction exact. *)
  from > 0.0 && x <= 2.0 *. from && d >= 1.0 && Float.is_integer d
  &&
  let t = c.text in
  let dot = ref 0 in
  while !dot < c.len && is_digit (Bytes.unsafe_get t !dot) do
    incr dot
  done;
  let dot = !dot in
  dot >= 2 && dot <= 11 && dot < c.len
  && Bytes.unsafe_get t dot = '.'
  && Bytes.unsafe_get t 0 <> '0'
  &&
  let whole = ref 0 in
  for i = 0 to dot - 1 do
    whole := (!whole * 10) + (Char.code (Bytes.unsafe_get t i) - 48)
  done;
  let whole = !whole + int_of_float d in
  let digits = ref 1 and m = ref whole in
  while !m >= 10 do
    incr digits;
    m := !m / 10
  done;
  !digits = dot
  &&
  let m = ref whole in
  for i = dot - 1 downto 0 do
    Bytes.unsafe_set t i (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  true

(* [Json.Float]'s bytes: [null] when not finite, [%.1f] for an integral
   value below 1e15 (its digits, then [.0]; [-0.0] keeps its sign), and
   [%.12g] otherwise, read through slot [c]. *)
let out_float o c x =
  if not (Float.is_finite x) then out_string o "null"
  else if Float.is_integer x && Float.abs x < 1e15 then begin
    if Float.sign_bit x then out_char o '-';
    out_neg_digits o (-int_of_float (Float.abs x));
    out_string o ".0"
  end
  else begin
    (* [x] is finite and not an integer, so [=] compares its bits. *)
    if x <> c.value then begin
      if not (shift_in_place c x) then begin
        let text = format_float "%.12g" x in
        Bytes.blit_string text 0 c.text 0 (String.length text);
        c.len <- String.length text
      end;
      c.value <- x
    end;
    out_reserve o c.len;
    Bytes.unsafe_blit c.text 0 o.bytes o.len c.len;
    o.len <- o.len + c.len
  end

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec plain s i =
  i = String.length s || ((not (needs_escape (String.unsafe_get s i))) && plain s (i + 1))

(* [Json.String]'s bytes between the quotes: verbatim unless some byte
   needs an escape. *)
let out_json_body o s = out_string o (if plain s 0 then s else Json.escape s)

(* An element equal to its predecessor copies the predecessor's digits
   from the buffer: an all-to-all's arrays are constant, and most others
   are runs of zeros. *)
let out_ints o a =
  out_char o '[';
  let start = ref 0 and len = ref 0 in
  for i = 0 to Array.length a - 1 do
    if i > 0 then out_char o ',';
    let x = Array.unsafe_get a i in
    if i > 0 && x = Array.unsafe_get a (i - 1) then begin
      out_reserve o !len;
      Bytes.unsafe_blit o.bytes !start o.bytes o.len !len;
      o.len <- o.len + !len
    end
    else begin
      start := o.len;
      out_int o x;
      len := o.len - !start
    end
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

(* A value of a record line, written and folded byte by byte. *)
let fold_int o x =
  let start = o.len in
  out_int o x;
  fold_since o start

let fold_body o x =
  let start = o.len in
  out_json_body o x;
  fold_since o start

let fold_float o slot x =
  let start = o.len in
  out_float o slot x;
  fold_since o start

let fold_ints o x =
  let start = o.len in
  out_ints o x;
  fold_since o start

(* The constant keys of a record line. *)
let k_seq = key {|{"type":"record","seq":|}
let k_kind = key {|,"kind":"|}
let k_label = key {|","label":"|}
let k_round_start = key {|","round_start":|}
let k_round_end = key {|,"round_end":|}
let k_rounds = key {|,"rounds":|}
let k_no_traffic = key {|,"messages":0,"words":0,"max_load":0,"sent":[],"recv":[]|}
let k_messages = key {|,"messages":|}
let k_words = key {|,"words":|}
let k_max_load = key {|,"max_load":|}
let k_sent = key {|,"sent":|}
let k_recv = key {|,"recv":|}
let k_no_faults = key {|,"retransmits":0,"dropped":0}|}
let k_retransmits = key {|,"retransmits":|}
let k_dropped = key {|,"dropped":|}
let k_close = key "}"

(* The record line, without its newline, folded into [o.hash] as it is
   written: each key through its table, each value byte by byte. Field
   order and bytes are the digest contract. The quotes around [kind] and
   [label] ride on the keys beside them, and so do the zero fields of a
   charge, which routes no traffic, and of a run without faults: each
   writes what the field-by-field path would. *)
let write_record o
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
    } =
  out_key o k_seq;
  fold_int o seq;
  out_key o k_kind;
  fold_body o kind;
  out_key o k_label;
  fold_body o label;
  out_key o k_round_start;
  fold_float o o.clock round_start;
  out_key o k_round_end;
  fold_float o o.clock round_end;
  out_key o k_rounds;
  fold_float o o.amount rounds;
  if
    messages = 0 && words = 0 && max_load = 0
    && Array.length sent = 0
    && Array.length recv = 0
  then out_key o k_no_traffic
  else begin
    out_key o k_messages;
    fold_int o messages;
    out_key o k_words;
    fold_int o words;
    out_key o k_max_load;
    fold_int o max_load;
    out_key o k_sent;
    fold_ints o sent;
    out_key o k_recv;
    fold_ints o recv
  end;
  if retransmits = 0 && dropped = 0 then out_key o k_no_faults
  else begin
    out_key o k_retransmits;
    fold_int o retransmits;
    out_key o k_dropped;
    fold_int o dropped;
    out_key o k_close
  end

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

let add t r =
  if
    Array.length r.sent <> Array.length r.recv
    || (Array.length r.sent <> 0 && Array.length r.sent <> t.machines)
  then
    invalid_arg
      "Recorder.add: per-machine arrays must be empty or one slot per machine";
  let o = t.line in
  o.len <- 0;
  set64 o.hash 0 t.digest;
  write_record o r;
  t.digest <- get64 o.hash 0;
  t.total <- t.total + 1;
  if t.stored < t.max_records then begin
    t.rev_records <- r :: t.rev_records;
    t.stored <- t.stored + 1
  end

(* --- inspection --- *)

let machines t = t.machines
let records t = List.rev t.rev_records
let total t = t.total
let hex h = Printf.sprintf "fnv64:%016Lx" h
let digest_hex t = hex t.digest
let fnv64_hex s = hex (fnv64 fnv_basis s)

(* --- JSONL export / reload --- *)

let to_jsonl t =
  let o = out_create 4096 in
  out_string o (header_line ~machines:t.machines);
  out_char o '\n';
  List.iter
    (fun r ->
      write_record o r;
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

let record_of_json v =
  let ( let* ) = Result.bind in
  let* seq = Json.int_field "seq" v in
  let* kind = Json.string_field "kind" v in
  let* label = Json.string_field "label" v in
  let* round_start = Json.float_field "round_start" v in
  let* round_end = Json.float_field "round_end" v in
  let* rounds = Json.float_field "rounds" v in
  let* messages = Json.int_field "messages" v in
  let* words = Json.int_field "words" v in
  let* max_load = Json.int_field "max_load" v in
  let* sent = Json.ints_field "sent" v in
  let* recv = Json.ints_field "recv" v in
  let* retransmits = Json.int_field "retransmits" v in
  let* dropped = Json.int_field "dropped" v in
  Ok
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
      sent = Array.of_list sent;
      recv = Array.of_list recv;
      retransmits;
      dropped;
    }

(* What a reload has read so far: nothing, the log that the header opened
   with the records after it, or that log closed by its trailer. *)
type reading = Start | Reading of t | Trailer of loaded

let of_jsonl s =
  let ( let* ) = Result.bind in
  let read state raw v =
    let tag = Json.member "type" v in
    match state with
    | Start ->
        if tag <> Some (Json.String "recorder") then
          Error "not a recorder log (missing recorder header)"
        else if Json.int_field "version" v <> Ok 1 then
          Error "unsupported recorder log version"
        else (
          match Json.int_field "machines" v with
          | Ok machines when machines >= 1 ->
              Ok
                (Reading
                   {
                     machines;
                     max_records = max_int;
                     line = out_create 0;
                     rev_records = [];
                     stored = 0;
                     total = 0;
                     digest = fnv64 fnv_basis raw;
                   })
          | _ -> Error "recorder header: bad machines field")
    | Reading t -> (
        match tag with
        | Some (Json.String "record") ->
            let* r = record_of_json v in
            t.rev_records <- r :: t.rev_records;
            t.stored <- t.stored + 1;
            t.total <- t.total + 1;
            (* The digest chain folds the raw line bytes exactly as read, so
               verification is immune to float re-serialization drift. *)
            t.digest <- fnv64 t.digest raw;
            Ok state
        | Some (Json.String "digest") ->
            Ok
              (Trailer
                 {
                   log = t;
                   trailer_digest =
                     Result.to_option (Json.string_field "digest" v);
                   trailer_records =
                     Result.to_option (Json.int_field "records" v);
                 })
        | _ -> Error "unknown line type")
    | Trailer _ -> Error "lines after digest trailer"
  in
  match Json.fold_lines read Start s with
  | Error _ as e -> e
  | Ok Start -> Error "empty recorder log"
  | Ok (Reading log) ->
      Ok { log; trailer_digest = None; trailer_records = None }
  | Ok (Trailer loaded) -> Ok loaded

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

let timeline ~width t =
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
