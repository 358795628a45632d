(** Fixed-precision truncation, reproducing the paper's [round] operator.

    Section 3.5 and Lemma 3 analyze the algorithm when every matrix entry is
    truncated to O(log^2 n) bits, yielding one-sided ("subtractive") error:
    every approximate entry under-approximates the exact one. [round_mat]
    truncates each nonnegative entry to [bits] fractional bits, exactly the
    paper's [round]. [rounded_power] computes M'(k) = round([M'(k/2)]^2) as in
    the proof of Lemma 3 and is compared against exact powers in bench E6. *)

(** [round_mat ~bits m] truncates every entry. *)
val round_mat : bits:int -> Mat.t -> Mat.t

(** [rounded_power ~bits m k] is M'(k) of Lemma 3: round after every
    squaring step. [k] must be a power of two (as in the paper). *)
val rounded_power : bits:int -> Mat.t -> int -> Mat.t

(** [lemma3_bits ~n ~k ~beta] is the number of fractional bits sufficient for
    subtractive error at most [beta] after computing a k-th power of an n x n
    transition matrix, following the recurrence E(k) <= (n+1) E(k/2) + delta
    from the proof of Lemma 3. *)
val lemma3_bits : n:int -> k:int -> beta:float -> int

(** [lemma3_error_bound ~n ~k ~bits] is the error budget the Lemma 3
    recurrence guarantees for the given precision: E(k) with
    delta = 2^-bits. *)
val lemma3_error_bound : n:int -> k:int -> bits:int -> float
