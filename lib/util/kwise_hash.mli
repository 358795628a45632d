(** t-wise independent hash families.

    Section 4 (step 1) of the paper requires a family of [8c log n]-wise
    independent hash functions [h : [n] x [k] -> [n]] that can be sampled with
    O(log^2 n) random bits and evaluated in polylog time. The standard
    construction is a degree-(t-1) polynomial with uniform coefficients over a
    prime field, reduced to the target range. *)

type t

(** [create prng ~independence ~domain ~range] samples a hash function from a
    family that is [independence]-wise independent on inputs in
    [0, domain) mapped to [0, range). Requires [0 < domain < 2^31 - 1] (the field's prime),
    [independence > 0], and [range > 0]; [range] may exceed [domain].
    @raise Invalid_argument when any requirement fails. *)
val create : Prng.t -> independence:int -> domain:int -> range:int -> t

(** [apply2 h ~encode_bound x y] evaluates the hash on the pair [(x, y)]
    encoded as [x * encode_bound + y], matching the paper's
    [h : [n] x [k] -> [n]] signature. *)
val apply2 : t -> encode_bound:int -> int -> int -> int

