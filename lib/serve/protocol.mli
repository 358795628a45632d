(** The ccserve wire protocol: newline-delimited JSON over a Unix-domain
    socket.

    One request per line:

    {v
    {"id": "r1", "graph": "n 4\ne 0 1 1\n...", "k": 2, "seed": 7,
     "method": "cc"}
    v}

    - [graph] (required): either a string in the {!Cc_graph.Graph.of_string}
      line format, or an object [{"n": 4, "edges": [[0,1], [1,2,2.5], ...]}]
      where each edge is [[u, v]] (weight 1) or [[u, v, w]].
    - [k] (default 1): number of trees to draw.
    - [seed] (default 0): master seed; tree [i] is drawn from the [i]-th
      sequential {!Cc_util.Prng.split} of the master stream, so tree [i] is
      independent of [k] (the [cctree sample --count] contract).
    - [method] (default ["cc"]): any {!Methods.name}: ["cc"],
      ["sequential"], ["doubling"], ["ab"], ["wilson"], ["updown"],
      ["determinantal"] or ["biased"]. ["biased"] is the audit plane's
      deliberately wrong fixture; a client gets it only by naming it.
    - [id] (optional): echoed verbatim on every response line.

    The server answers with [k] tree lines followed by one done line — or
    one error line, after which the connection stays usable:

    {v
    {"type":"tree","id":"r1","index":0,"header":"# tree 1: ...","edges":[[0,1],...]}
    {"type":"done","id":"r1","k":2,"cache":"hit","digest":"fnv64:...","rounds":42}
    {"type":"error","id":"r1","message":"..."}
    v}

    [header] carries the exact preformatted header bytes cctree would print
    for that tree (so a client can reproduce one-shot [cctree] stdout
    byte-for-byte without re-deriving float formatting), [digest] is the
    request's flight-recorder chain digest over the Net events it booked,
    and [cache] is ["hit"] or ["miss"] for the plan lookup. *)

(** The request's sampler: the {!Methods} table's type, re-exported. *)
type method_ = Methods.t =
  | Cc | Sequential | Doubling | Ab | Wilson | Updown | Determinantal | Biased

type request = {
  id : string option;
  graph : Cc_graph.Graph.t;
  k : int;
  seed : int;
  meth : method_;
}

(** [parse_request line] parses one request line. Errors are human-readable
    messages suitable for an error response. *)
val parse_request : string -> (request, string) result

(** [request_line ?id ~graph ~k ~seed ~meth ()] serializes one request
    (graph in the {!Cc_graph.Graph.to_string} line format), trailing
    newline included — the [cctree sample --connect] client side. *)
val request_line :
  ?id:string ->
  graph:Cc_graph.Graph.t ->
  k:int ->
  seed:int ->
  meth:method_ ->
  unit ->
  string

(** {1 Response lines} — each includes the trailing newline. *)

val tree_line :
  ?id:string ->
  index:int ->
  header:string ->
  edges:(int * int) list ->
  unit ->
  string

val done_line :
  ?id:string ->
  k:int ->
  cache_hit:bool ->
  digest:string ->
  rounds:float ->
  unit ->
  string

val error_line : ?id:string -> string -> string

(** {1 Client-side parsing} *)

type response =
  | Tree of { id : string option; index : int; header : string;
              edges : (int * int) list }
  | Done of { id : string option; k : int; cache_hit : bool;
              digest : string; rounds : float }
  | Error of { id : string option; message : string }

val parse_response : string -> (response, string) result
