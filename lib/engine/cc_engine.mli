(** What is left of the domain pool: everything runs in the calling domain.
    Only [bench/perf] links this, for its [--domains] flag, and the next
    change to the benchmark deletes it. *)

type t

(** @raise Invalid_argument unless [domains] is 1 (the default). *)
val create : ?domains:int -> unit -> t

val domains : t -> int
val default_domains : unit -> int
val set_default : t -> unit
val shutdown : t -> unit
