(** Matrix multiplication in the Congested Clique.

    Input/output convention follows Censor-Hillel et al. [14] as used by the
    paper: each machine i holds row i of each operand and learns row i of the
    product. Two cost backends:

    - [Charged]: the product is computed locally and
      [coeff * n^alpha * entry_words] rounds are booked — the paper's
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

    [power_table] implements the Initialization Step of Algorithm 1: compute
    P, P^2, P^4, ..., P^(2^levels) and transpose-distribute so each machine
    also holds its column of every power ("Every Machine i sends P^k[i,j] to
    machine j"). *)

type backend =
  | Charged of { alpha : float; coeff : float }
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

(** [charged ()] is [Charged { alpha = default_alpha; coeff = 1.0 }]. *)
val charged : ?alpha:float -> ?coeff:float -> unit -> backend

(** [backend_name b] is a short stable name (["charged"],
    ["routed-broadcast"], ["routed-semiring"]) for traces and reports. *)
val backend_name : backend -> string

(** [mul net backend a b] returns the product and books its rounds under
    label ["matmul"]. Operands need not be n x n: off-size products (the
    |S| x |S| Schur matrices of later phases, the 2n x 2n auxiliary chain)
    are booked at [mul_cost ~dim]. *)
val mul : Net.t -> backend -> Cc_linalg.Mat.t -> Cc_linalg.Mat.t -> Cc_linalg.Mat.t

(** [rounds_estimate net backend] is the round cost a single multiplication
    will book — used by benches to display the analytic charge. *)
val rounds_estimate : Net.t -> backend -> float

(** [mul_cost net backend ~dim] is the round cost of multiplying [dim x dim]
    matrices on this clique (dim may exceed n, e.g. the 2n-vertex auxiliary
    graph G' of Corollary 3 — each machine then simulates O(dim/n) rows). *)
val mul_cost : Net.t -> backend -> dim:int -> float

(** [book_mul net backend ~dim] books exactly the Net events [mul] would emit
    for a [dim x dim] product — same primitives, labels, and word counts —
    without performing any arithmetic. The plan cache's warm path replays
    bookings through this mirror so a cache hit leaves the recorder digest
    byte-identical to the cold run. *)
val book_mul : Net.t -> backend -> dim:int -> unit

(** [power_table net backend ?bits m ~levels] returns
    [[| m; m^2; m^4; ...; m^(2^levels) |]] (length [levels + 1]), squaring
    with [backend] and optionally truncating entries to [bits] fractional
    bits after every squaring (Lemma 3's rounded powering). Also books the
    column-redistribution ([all_to_all]) after each level, matching
    Algorithm 1 lines 2–3.

    Squaring goes through {!Cc_linalg.Mat.squarings}: it stops at a level
    that repeats the previous one bit for bit or, without [bits] and for a
    row-stochastic [m], whose rows agree to within 1e-12 in l1; the later
    levels alias that level. A skipped level still books [book_mul] and
    then its transpose, as a computed one does, and counts one
    ["matmul.squarings_skipped"]; computed levels go through {!mul}. So the
    bookings never depend on where the table stopped.

    With [?reuse:table] (a table previously produced for the same matrix,
    bits, and levels — the caller's responsibility), the arithmetic is
    skipped and [table] is returned, but the full booking sequence (the
    transpose redistributions and each squaring's rounds) is still charged:
    a prepared plan saves compute, not communication, and the recorder
    digest is identical either way. *)
val power_table :
  Net.t ->
  backend ->
  ?bits:int ->
  ?reuse:Cc_linalg.Mat.t array ->
  Cc_linalg.Mat.t ->
  levels:int ->
  Cc_linalg.Mat.t array

(** [power_table_pure ?bits m ~levels] is the arithmetic of [power_table]
    with no clique attached, with the same stop: used by [prepare] phases
    that precompute a plan's power table outside any metered run. Combining
    [power_table_pure] at prepare time with [power_table ~reuse] at draw
    time yields the same matrices and the same bookings as a cold
    [power_table]. *)
val power_table_pure :
  ?bits:int -> Cc_linalg.Mat.t -> levels:int -> Cc_linalg.Mat.t array
