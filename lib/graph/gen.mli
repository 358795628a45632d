(** Graph generators for the benchmark workloads.

    These cover every family the paper's analysis mentions: Erdős–Rényi
    G(n,p) with p >= c log n / n and d-regular expanders (Corollary 2,
    O(n log n) cover time), the lollipop graph (the Θ(mn) cover-time worst
    case motivating the whole construction), plus standard shapes used in
    tests (paths, cycles, grids, complete graphs, trees). *)

(** [path n] is the path 0-1-...-(n-1). *)
val path : int -> Graph.t

(** [cycle n], n >= 3. *)
val cycle : int -> Graph.t

(** [complete n] is K_n. *)
val complete : int -> Graph.t

(** [star n] has center 0 and leaves 1..n-1. *)
val star : int -> Graph.t

(** [grid ~rows ~cols] is the rows x cols grid graph. *)
val grid : rows:int -> cols:int -> Graph.t

(** [lollipop ~clique ~tail] is K_clique with a path of [tail] extra vertices
    attached — cover time Θ(clique^2 · tail); with tail ≈ clique ≈ n/2 this
    realizes the Θ(mn) = Θ(n^3) worst case. *)
val lollipop : clique:int -> tail:int -> Graph.t

(** [barbell k] is two K_k cliques joined by a single edge. *)
val barbell : int -> Graph.t

(** [erdos_renyi_connected prng ~n ~p] resamples until connected
    (@raise Failure after 1000 attempts). *)
val erdos_renyi_connected : Cc_util.Prng.t -> n:int -> p:float -> Graph.t

(** [random_regular prng ~n ~d] samples a simple d-regular graph via the
    pairing model with rejection; [n * d] must be even.
    @raise Failure if 1000 attempts all produce collisions. *)
val random_regular : Cc_util.Prng.t -> n:int -> d:int -> Graph.t

(** [random_connected prng ~n ~extra_edges] is a uniform random spanning tree
    skeleton plus [extra_edges] random chords: always connected, used by
    property tests. *)
val random_connected : Cc_util.Prng.t -> n:int -> extra_edges:int -> Graph.t

(** [random_weights prng g ~max_weight] reweights each edge of [g] with a
    uniform integer weight in [1, max_weight] (footnote 1: integer weights
    bounded by a polynomial). *)
val random_weights : Cc_util.Prng.t -> Graph.t -> max_weight:int -> Graph.t

(** [figure2 ()] is the 4-vertex worked example of Figure 2 of the paper:
    vertices A=0, B=1, C=2, D=3; edges A-C, B-C, D-C (a star centered at C).
    Used by bench E8 which checks Schur(G, {A,B,D}) and Shortcut(G, {A,B,D})
    against the transition probabilities printed in the figure. *)
val figure2 : unit -> Graph.t

(** Named families for the CLI and benches. *)
type family =
  | Path
  | Cycle
  | Complete
  | Star
  | Grid
  | Binary_tree
  | Lollipop
  | Barbell
  | Erdos_renyi of float (* p *)
  | Er_log of float (* p = c log n / n *)
  | Regular of int (* degree *)

val family_of_string : string -> family
val family_to_string : family -> string

(** [build prng family ~n] instantiates a family at size ~n (families with
    structural constraints may round n; the result reports its true size). *)
val build : Cc_util.Prng.t -> family -> n:int -> Graph.t
