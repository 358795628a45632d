(** Plain-text table rendering for the benchmark harness.

    Every experiment in EXPERIMENTS.md is printed as one of these tables so
    the paper-vs-measured comparison is a single, diffable artifact. *)

type t

(** [create ~title ~columns] starts an empty table. *)
val create : title:string -> columns:string list -> t

(** [add_row t cells] appends a row; must match the column count. *)
val add_row : t -> string list -> unit

(** Convenience cell formatters. *)
val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_sci : float -> string

(** [render t] returns the table as an aligned, boxed string. *)
val render : t -> string

(** [print t] renders to stdout followed by a newline. *)
val print : t -> unit

