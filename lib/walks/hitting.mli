(** Exact hitting times, by the subtraction-free elimination.

    H(u,v) = expected steps of a walk from u to first reach v, one
    elimination grounded at each v. Wilson's algorithm runs in mean hitting
    time; commute times equal [2 W R_eff(u,v)] (Chandra et al., cited by
    the paper for expander cover times), which the test suite checks on the
    mean. *)

(** [mean_hitting_time g] is the stationarily-averaged hitting time
    [sum_{u,v} pi(u) pi(v) H(u,v)] — Wilson's expected runtime scale. *)
val mean_hitting_time : Cc_graph.Graph.t -> float
