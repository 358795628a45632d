module Graph = Cc_graph.Graph
module Net = Cc_clique.Net
module Sampler = Cc_sampler.Sampler
module Sequential = Cc_sampler.Sequential
module Doubling = Cc_doubling.Doubling
module Walks = Cc_walks

type t = Cc | Sequential | Doubling | Ab | Wilson | Updown | Determinantal | Biased

let all = [ Cc; Sequential; Doubling; Ab; Wilson; Updown; Determinantal; Biased ]

let describe = function
  | Cc -> ("cc", "the Theorem 2 distributed sampler")
  | Sequential -> ("sequential", "the Section 1.2 phased reference")
  | Doubling -> ("doubling", "the Corollary 1-2 doubling walk")
  | Ab -> ("ab", "Aldous-Broder")
  | Wilson -> ("wilson", "loop-erased walks")
  | Updown -> ("updown", "basis-exchange MCMC")
  | Determinantal -> ("determinantal", "leverage-score chain rule")
  | Biased ->
      ( "biased",
        "a deliberately wrong rejection sampler — the negative fixture the \
         audit plane must reject" )

let name m = fst (describe m)
let doc m = snd (describe m)

let of_string s =
  let s = String.lowercase_ascii s in
  match List.find_opt (fun m -> name m = s) all with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown method %S (%s)" s
           (String.concat "|" (List.map name all)))

type draw = {
  tree : Cc_graph.Tree.t;
  header : string;
  health : Cc_clique.Fault.health option;
}

type plan = int -> Net.t -> Cc_util.Prng.t -> draw

let header i fmt = Printf.sprintf ("# tree %d" ^^ fmt ^^ "\n") i

let prepare ?config m g =
  if not (Graph.is_connected g) then
    invalid_arg "Methods.prepare: graph must be connected";
  let draw tree header = { tree; header; health = None } in
  let walk sample : plan =
   fun i net prng ->
    let tree, steps = sample net prng in
    draw tree (header i ": %d walk steps" steps)
  in
  let fixed text sample : plan =
   fun i _ prng -> draw (sample g prng) (header i " (%s)" text)
  in
  match m with
  | Cc ->
      let plan = Sampler.prepare ?config g in
      fun i net prng ->
        let r = Sampler.draw plan net prng in
        {
          tree = r.tree;
          header =
            header i ": %d phases, %.0f rounds, walk length %d" r.phases
              r.rounds r.walk_total;
          health = Some r.health;
        }
  | Sequential ->
      let plan = Sequential.prepare g in
      fun i _ prng ->
        let r = Sequential.draw plan prng in
        draw r.tree (header i ": %d phases, walk length %d" r.phases r.walk_total)
  | Doubling ->
      let tau0 = Graph.n g in
      walk (fun net prng -> Doubling.sample_tree net prng g ~tau0)
  | Ab -> walk (fun _ prng -> Walks.Aldous_broder.sample g prng ~start:0)
  | Wilson -> walk (fun _ prng -> Walks.Wilson.sample g prng ~root:0)
  | Updown ->
      let steps = Walks.Updown.default_steps g in
      let init = Walks.Updown.bfs_tree g in
      fun i _ prng ->
        draw
          (Walks.Updown.sample g prng ~steps ~init)
          (header i ": %d chain steps" steps)
  | Determinantal ->
      fixed "exact, leverage-score chain rule" Walks.Determinantal.sample_tree
  | Biased -> fixed "biased fixture; see --audit" Walks.Wilson.sample_biased
