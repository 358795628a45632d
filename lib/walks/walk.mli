(** Sequential random walks on weighted graphs.

    A walk on a weighted graph picks each transition proportional to edge
    weight (footnote 2 of the paper). These primitives provide the ground
    truth the distributed algorithms are validated against, plus the
    cover-time measurements of bench E9. *)

(** [step g prng u] takes one transition from [u].
    @raise Invalid_argument if [u] has no neighbors. *)
val step : Cc_graph.Graph.t -> Cc_util.Prng.t -> int -> int

(** [walk g prng ~start ~len] is the vertex sequence [w_0 .. w_len]
    (length [len + 1], [w_0 = start]). *)
val walk : Cc_graph.Graph.t -> Cc_util.Prng.t -> start:int -> len:int -> int array

(** [first_visit_edges walk_seq] maps the Aldous–Broder rule over an explicit
    walk: for every vertex other than [walk_seq.(0)] that appears, the edge
    used at its first visit, as [(predecessor, vertex)] pairs in order of
    first visit. *)
val first_visit_edges : int array -> (int * int) list

(** [distinct_count walk_seq] is the number of distinct vertices. *)
val distinct_count : int array -> int

(** [truncate_at_distinct walk_seq ~rho] cuts the walk at the first position
    where the [rho]-th distinct vertex appears (inclusive); returns the walk
    unchanged if it never reaches [rho] distinct vertices. This is the
    truncation rule of Section 3.1.2. *)
val truncate_at_distinct : int array -> rho:int -> int array

(** [cover_time g prng ~start] walks until all vertices are visited and
    returns the number of steps.
    @raise Invalid_argument if [g] is not connected. *)
val cover_time : Cc_graph.Graph.t -> Cc_util.Prng.t -> start:int -> int

(** [time_to_distinct g prng ~start ~rho] walks until [rho] distinct vertices
    (including [start]) have been visited; returns the number of steps — the
    stopping time T of Phase 1. *)
val time_to_distinct : Cc_graph.Graph.t -> Cc_util.Prng.t -> start:int -> rho:int -> int

(** [mean_cover_time g prng ~trials] averages [cover_time] over random trials
    (start vertex 0).
    @raise Invalid_argument if [trials <= 0] or [g] is not connected. *)
val mean_cover_time : Cc_graph.Graph.t -> Cc_util.Prng.t -> trials:int -> float

(** [stationary g] is the stationary distribution (weighted degree over total)
    of the walk on a connected [g]. *)
val stationary : Cc_graph.Graph.t -> Cc_util.Dist.t

(** [endpoint_distribution g ~start ~len] is the exact distribution of
    [w_len] via matrix powering — used to validate samplers. *)
val endpoint_distribution : Cc_graph.Graph.t -> start:int -> len:int -> Cc_util.Dist.t
