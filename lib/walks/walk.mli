(** Sequential random walks on weighted graphs.

    A walk on a weighted graph picks each transition proportional to edge
    weight (footnote 2 of the paper). These primitives step the baseline
    samplers' walks, truncate the phase walks, and give the cover-time
    measurements of bench E9. *)

(** [step g prng u] takes one transition from [u].
    @raise Invalid_argument if [u] has no neighbors. *)
val step : Cc_graph.Graph.t -> Cc_util.Prng.t -> int -> int

(** [walk g prng ~start ~len] is the vertex sequence [w_0 .. w_len]
    (length [len + 1], [w_0 = start]). *)
val walk : Cc_graph.Graph.t -> Cc_util.Prng.t -> start:int -> len:int -> int array

(** [truncate_at_distinct walk_seq ~rho] cuts the walk at the first position
    where the [rho]-th distinct vertex appears (inclusive); returns the walk
    unchanged if it never reaches [rho] distinct vertices. This is the
    truncation rule of Section 3.1.2. *)
val truncate_at_distinct : int array -> rho:int -> int array

(** [mean_cover_time g prng ~trials] averages the steps a walk from vertex 0
    takes to visit every vertex over [trials] runs.
    @raise Invalid_argument if [trials <= 0] or [g] is not connected. *)
val mean_cover_time : Cc_graph.Graph.t -> Cc_util.Prng.t -> trials:int -> float

