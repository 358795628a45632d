(** Exact hitting and commute times, by the subtraction-free elimination.

    H(u,v) = expected steps of a walk from u to first reach v. Wilson's
    algorithm runs in mean hitting time; commute times equal
    [2 W R_eff(u,v)] (Chandra et al., cited by the paper for expander cover
    times) — both identities are checked in the test suite and used by the
    baseline benches. *)

(** [to_target g v] is the vector of hitting times H(., v): with U = V \ {v},
    [(I - P_UU) h = 1] is [L_UU h = d_U] for the weighted degrees d, which
    one elimination grounded at v solves ({!Cc_graph.Graph.eliminate}).
    @raise Invalid_argument if [v] is not a vertex or [g] is disconnected. *)
val to_target : Cc_graph.Graph.t -> int -> float array

(** [matrix g] is the full H(u,v) matrix (n solves). *)
val matrix : Cc_graph.Graph.t -> Cc_linalg.Mat.t

(** [commute g u v] = H(u,v) + H(v,u) = 2 W(G) R_eff(u,v), where W(G) is
    the total edge weight. *)
val commute : Cc_graph.Graph.t -> int -> int -> float

(** [mean_hitting_time g] is the stationarily-averaged hitting time
    [sum_{u,v} pi(u) pi(v) H(u,v)] — Wilson's expected runtime scale. *)
val mean_hitting_time : Cc_graph.Graph.t -> float
