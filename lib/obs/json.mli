(** Minimal JSON construction, serialization, and parsing.

    The observability exporters (Chrome traces, recorder logs, audit
    artifacts, the bench harness's [--json] trajectory files) emit JSON, and
    the offline tools read those artifacts back, so this module is a value
    type plus a serializer, a small recursive-descent parser, typed field
    getters and the one JSON Lines reader every artifact loader shares — no
    external dependency. Non-finite floats serialize as [null] (JSON has no
    NaN). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [float_opt x] is [Float x], or [Null] when [x] is not finite. *)
val float_opt : float -> t

(** [escape s] is [s] with JSON string escapes applied (no surrounding
    quotes). *)
val escape : string -> string

(** [to_string v] is the compact one-line serialization of [v]. *)
val to_string : t -> string

(** [to_string_pretty v] is an indented serialization (2-space indent),
    for artifacts meant to be read and diffed by humans. *)
val to_string_pretty : t -> string

(** {1 Parsing} *)

(** [of_string s] parses one JSON value spanning the whole of [s]. Integer
    literals without a fraction or exponent become [Int] (falling back to
    [Float] beyond native-int range); [\u] escapes decode to UTF-8, with
    unpaired surrogates replaced by U+FFFD. The error carries the byte
    offset of the failure. *)
val of_string : string -> (t, string) result

(** {1 Accessors}

    Shape-tolerant lookups for reading parsed documents: each returns [None]
    when the value has a different constructor. *)

(** [member key v] is field [key] of object [v]. *)
val member : string -> t -> t option

(** [to_float_opt v] is the numeric value of an [Int] or [Float]. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
val to_bool_opt : t -> bool option

(** [to_int_opt v] is an [Int], or a [Float] whose value is an integer
    within native-int range. *)
val to_int_opt : t -> int option

(** {1 Typed fields} *)

(** [field what conv key v] is field [key] of object [v] read through
    [conv], or an error [missing field "key"] or [field "key" is not WHAT].
    The getters below are its instances, with [what] ["an integer"],
    ["a number"], ["a string"], ["a boolean"] and ["a list of integers"]. *)
val field : string -> (t -> 'a option) -> string -> t -> ('a, string) result

(** An integer, by {!to_int_opt}. *)
val int_field : string -> t -> (int, string) result

(** A number; [null], which the serializer writes for a non-finite float,
    reads as NaN. *)
val float_field : string -> t -> (float, string) result

val string_field : string -> t -> (string, string) result
val bool_field : string -> t -> (bool, string) result

(** A list whose every element is an integer, by {!to_int_opt}. *)
val ints_field : string -> t -> (int list, string) result

(** {1 JSON Lines} *)

(** [fold_lines f init s] reads [s] as JSON Lines: it splits [s] on
    ['\n'], skips lines that hold only whitespace, parses every other line
    and folds [f acc raw v] over them in order, [raw] being the line's bytes
    as split (what a digest over the file folds) and [v] its value. Lines
    are numbered physically from 1, blank ones included, and the first
    error, the parser's or [f]'s, comes back as ["line N: "] followed by
    its message. *)
val fold_lines :
  ('a -> string -> t -> ('a, string) result) -> 'a -> string -> ('a, string) result
