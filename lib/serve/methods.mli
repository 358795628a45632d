(** The sampler table: every spanning-tree method that [cctree sample]
    runs and ccserve serves, with its [--method] name, its doc line and one
    prepare/draw path.

    A plan draws tree [i] from the prng its caller passes: [cctree sample
    --count] and ccserve pass the [i]-th {!Cc_util.Prng.split} of the master
    stream, so tree [i] does not depend on the count, and [--trials] passes
    the master stream itself. Each draw carries the exact header bytes
    [cctree sample] prints above the tree, so a served tree prints as a
    one-shot tree does. *)

(** See {!doc}. *)
type t = Cc | Sequential | Doubling | Ab | Wilson | Updown | Determinantal | Biased

(** Every method, in [--method] doc order. *)
val all : t list

(** [name m] is [m]'s [--method] and wire name, e.g. ["cc"]. *)
val name : t -> string

(** [doc m] is [m]'s description in [--method]'s doc. *)
val doc : t -> string

(** [of_string s] is the method named [s] (case-insensitive), or an error
    naming [s] and every accepted name. *)
val of_string : string -> (t, string) result

type draw = {
  tree : Cc_graph.Tree.t;
  header : string;  (** ["# tree i…\n"], as [cctree sample] prints it. *)
  health : Cc_clique.Fault.health option;  (** [Some] for [Cc] only. *)
}

(** [plan i net prng] draws tree [i] (1-based, read by the header only).
    [Cc] and [Doubling] book their communication on [net], whose size must
    be the graph's vertex count; the other methods leave it alone. *)
type plan = int -> Cc_clique.Net.t -> Cc_util.Prng.t -> draw

(** [prepare ?config m g] checks [g] once and does [m]'s graph-only work;
    [config] is read by [Cc] only.
    @raise Invalid_argument if [g] is disconnected. *)
val prepare : ?config:Cc_sampler.Sampler.config -> t -> Cc_graph.Graph.t -> plan
