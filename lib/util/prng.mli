(** Deterministic, splittable pseudo-random number generation.

    All randomized algorithms in this repository take an explicit [Prng.t] so
    that every experiment and test is reproducible from a single integer seed.
    The generator wraps [Random.State] (OCaml 5 splitmix-based) and adds the
    handful of sampling helpers the algorithms need. *)

type t

(** [create ~seed] builds a generator deterministically from [seed]. *)
val create : seed:int -> t

(** [split t] derives a fresh, statistically independent generator. The parent
    generator advances; repeated splits yield distinct streams. *)
val split : t -> t

(** [streams t n] is [n] independent generators split off [t] in index order:
    one stream per machine, so each machine's draws depend only on its
    index and not on the order the machines run in. *)
val streams : t -> int -> t array

(** [int t bound] is uniform on [0, bound). [bound] must be positive. *)
val int : t -> int -> int

(** [float t bound] is uniform on [0, bound). *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [choose t arr] picks a uniform element of [arr].
    @raise Invalid_argument on an empty array. *)
val choose : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place uniformly (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [subset t ~size arr] samples [size] distinct elements of [arr] uniformly
    without replacement. @raise Invalid_argument if [size > Array.length arr]. *)
val subset : t -> size:int -> 'a array -> 'a array
