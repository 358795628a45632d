(** Matrix multiplication in the Congested Clique.

    Input/output convention follows Censor-Hillel et al. [14] as used by the
    paper: each machine i holds row i of each operand and learns row i of the
    product. Two cost backends:

    - [Charged]: the product is computed locally and
      [n^alpha * entry_words] rounds are booked — the paper's
      accounting, with alpha = 0.158 by default (their Theorem for semiring-
      free matrix exponent in the clique). This is the backend the
      sublinear-sampler benches use.
    - [Routed_broadcast]: a fully metered naive algorithm in which every
      machine broadcasts its row of the right operand so each machine can
      form its product row locally — Θ(n · entry_words) rounds. Included as
      the baseline exhibiting why fast matmul matters (and to show that the
      simulator can route everything explicitly).
    - [Routed_semiring]: the 3D semiring algorithm of [14] at
      Θ(n^(1/3) · entry_words) rounds, metered by its real per-machine block
      loads — the best exponent achievable without fast (ring) matrix
      multiplication.

    A product's arithmetic is local computation, which the model does not
    charge (Section 2.1), so this module computes and books separately.
    For the power table P, P^2, P^4, ..., P^(2^levels) of Algorithm 1's
    Initialization Step, the clique pays for each squaring's product and
    for the transpose-distribution after each level, by which each machine
    also holds its column of every power ("Every Machine i sends P^k[i,j]
    to machine j"). [power_table_pure] computes a table and
    [book_power_table] books one: a prepared plan computes its tables once,
    and every draw books them. *)

type backend =
  | Charged of { alpha : float }
  | Routed_broadcast
  | Routed_semiring
      (** the semiring algorithm of Censor-Hillel et al. [14]: machines are
          arranged in an n^(1/3) x n^(1/3) x n^(1/3) cube, every machine
          receives two n^(2/3) x n^(2/3) operand blocks and sends n^(4/3)
          partial products for combining — O(n^(1/3)) rounds per entry word,
          metered as per-machine block loads. (The paper's O(n^0.158) needs
          Strassen-style ring algorithms; that cost is available through
          [Charged].) *)

(** The current Congested Clique matrix-multiplication exponent,
    [1 - 2/omega] with omega ~ 2.372: 0.158. *)
val default_alpha : float

(** [charged ()] is [Charged { alpha = default_alpha }]. *)
val charged : ?alpha:float -> unit -> backend

(** [backend_name b] is a short stable name (["charged"],
    ["routed-broadcast"], ["routed-semiring"]) for traces and reports. *)
val backend_name : backend -> string

(** [mul_cost net backend ~dim] is the round cost of multiplying [dim x dim]
    matrices on this clique (dim may exceed n, e.g. the 2n-vertex auxiliary
    graph G' of Corollary 3 — each machine then simulates O(dim/n) rows). *)
val mul_cost : Net.t -> backend -> dim:int -> float

(** [power_table_pure ?bits m ~levels] returns
    [[| m; m^2; m^4; ...; m^(2^levels) |]] (length [levels + 1]) and its
    mixed level, optionally truncating entries to [bits] fractional bits
    before the first squaring and after every one (Lemma 3's rounded
    powering). It books nothing. Both phased samplers' tables come from
    here, through their plan.

    Squaring goes through {!Cc_linalg.Mat.squarings}: it stops at a level
    that repeats the previous one bit for bit or, without [bits] and for a
    row-stochastic [m], whose rows agree to within 1e-12 in l1; the later
    levels alias that level, which is the mixed level when every entry
    also agrees with row 0's to a relative 1e-10. A table with [bits] has
    no mixed level. Each computed squaring runs in a ["matmul.mul"] span
    and counts one ["matmul.muls"]; each aliased level counts one
    ["matmul.squarings_skipped"]. *)
val power_table_pure :
  ?bits:int ->
  Cc_linalg.Mat.t ->
  levels:int ->
  Cc_linalg.Mat.t array * int option

(** [book_power_table net backend ~dim ~levels] books the Initialization
    Step for a table of [dim x dim] matrices with [levels] squarings: the
    base matrix's transpose-distribution ([all_to_all] of one entry per
    machine pair, label ["power-table transpose"]), then [levels] times
    one product's rounds (label ["matmul"]: the routed backends meter their
    real pattern at [dim = n], any other product is charged {!mul_cost})
    and the level's transpose. It is the only code that books a
    power table, and it books every level whether or not
    [power_table_pure] stopped squaring there, so the bookings never depend
    on the table's values. Runs in a ["matmul.power_table"] span. *)
val book_power_table : Net.t -> backend -> dim:int -> levels:int -> unit
