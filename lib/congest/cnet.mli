(** The CONGEST model: the related-work point of comparison.

    The paper contrasts its Congested Clique results with the much weaker
    CONGEST model (Das Sarma, Nanongkai, Pandurangan, Tetali: spanning-tree
    sampling in Õ(sqrt(m) D) rounds): machines are the graph's vertices and
    in each synchronous round one O(log n)-bit message crosses each edge in
    each direction. This simulator meters CONGEST algorithms the same way
    {!Cc_clique.Net} meters clique algorithms: all data movement goes
    through [exchange]/[token_route], and rounds are charged by the maximal
    per-edge directed load. *)

type t

(** [create g] builds a CONGEST network over the connected communication
    graph [g]. *)
val create : Cc_graph.Graph.t -> t

val graph : t -> Cc_graph.Graph.t
val rounds : t -> float

type packet = { src : int; dst : int; words : int }

(** [exchange t packets] delivers packets between {e adjacent}
    vertices; rounds = max over directed edges of the words crossing it.
    @raise Invalid_argument if some packet's endpoints are not adjacent. *)
val exchange : t -> packet list -> unit

(** [depth t] is the BFS depth from vertex 0 — the diameter proxy D used by
    tree-routing costs. *)
val depth : t -> int

(** [token_route t ~src ~dst ~words] moves a [words]-word token
    between two arbitrary vertices by routing over the BFS tree:
    charges [words * (dist to root + dist from root)] upper-bounded rounds
    (<= 2 * depth * words). Returns the charged rounds. *)
val token_route : t -> src:int -> dst:int -> words:int -> float

(** [charge t rounds] books analytic rounds (e.g. the flooding cost
    of the initial BFS construction, = depth). *)
val charge : t -> float -> unit
