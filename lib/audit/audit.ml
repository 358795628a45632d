module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Dist = Cc_util.Dist
module Json = Cc_obs.Json
module Metrics = Cc_obs.Metrics

(* Edges with leverage within [bridge_eps] of 1 are in every spanning tree
   (graph bridges); their inclusion count has zero variance, so they get an
   exactness gate instead of a z-score. *)
let bridge_eps = 1e-9

(* Leverage bounds for the ESS estimate: edges with marginals this close to
   0 or 1 carry almost no information per sample and their autocorrelation
   estimate is dominated by noise. *)
let ess_info_lo = 0.01
let ess_info_hi = 0.99

(* The sample size below which the asymptotic gates abstain. *)
let min_trials = 32

(* The exact tree distribution is enumerated for n <= [small_limit] when
   the graph has at most [small_support] spanning trees. *)
let small_limit = 8
let small_support = 20_000

type edge_stat = {
  u : int;
  v : int;
  leverage : float;
  count : int;
  z : float;
  bridge : bool;
}

type gate = {
  gate : string;
  applied : bool;
  breached : bool;
  statistic : float;
  threshold : float;
  detail : string;
}

type verdict = { pass : bool; at_trials : int; gates : gate list }

type snapshot = {
  at : int;
  s_max_z : float;
  s_tv : float;
  s_kl : float;
  s_ess : float;
  s_small_tv : float option;
}

type small_state = {
  trees : Tree.t array;
  lookup : Tree.t -> int;
  target : Dist.t;
  counts : int array;
  mutable foreign : int;
}

let feature_names = [| "max_degree"; "leaf_count"; "diameter"; "root_depth" |]

type t = {
  graph : Graph.t;
  n : int;
  m : int;
  alpha : float;
  edge_u : int array;
  edge_v : int array;
  leverage : float array;
  is_bridge : bool array;
  counts : int array;
  (* Lag-1 machinery: [prev] is the previous tree's inclusion bit per edge,
     [lag1] the number of consecutive-tree pairs where both included. *)
  prev : Bytes.t;
  lag1 : int array;
  mutable trials : int;
  mutable invalid : int;
  (* Feature histograms, indexed as [feature_names]; values are in [0, n]. *)
  feat_hist : int array array;
  feat_expected : (int * float) list array;
  small : small_state option;
  mutable snapshots : snapshot list; (* reverse chronological *)
}

(* ------------------------------------------------------------------ *)
(* Tree features                                                       *)

let bfs_farthest adj n s =
  let dist = Array.make n (-1) in
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.add s q;
  let far = ref s in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          if dist.(v) > dist.(!far) then far := v;
          Queue.add v q
        end)
      adj.(u)
  done;
  (!far, dist.(!far))

(* [max degree; leaf count; diameter; root depth (ecc. of vertex 0)]. *)
let features_of ~n tree =
  if n <= 1 then [| 0; 0; 0; 0 |]
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      (Tree.edges tree);
    let maxdeg = ref 0 and leaves = ref 0 in
    Array.iter
      (fun l ->
        let d = List.length l in
        if d > !maxdeg then maxdeg := d;
        if d = 1 then incr leaves)
      adj;
    let far, depth = bfs_farthest adj n 0 in
    let _, diameter = bfs_farthest adj n far in
    [| !maxdeg; !leaves; diameter; depth |]
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(alpha = 1e-3) g =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Audit.create: alpha must lie in (0, 1)";
  if not (Graph.is_connected g) then
    invalid_arg "Audit.create: graph must be connected";
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let edge_u = Array.map (fun (u, _, _) -> u) edges in
  let edge_v = Array.map (fun (_, v, _) -> v) edges in
  let resistance = Graph.edge_resistances g in
  let leverage =
    Array.mapi
      (fun i (_, _, w) -> Float.min 1.0 (Float.max 0.0 (w *. resistance.(i))))
      edges
  in
  let is_bridge = Array.map (fun p -> p >= 1.0 -. bridge_eps) leverage in
  let small =
    if n > small_limit then None
    else
      match Tree.index ~limit:small_support g with
      | trees, lookup ->
          let target = Tree.weighted_distribution g trees in
          Some
            { trees; lookup; target; counts = Array.make (Array.length trees) 0;
              foreign = 0 }
      | exception Invalid_argument _ -> None
  in
  let feat_expected =
    match small with
    | None -> Array.make (Array.length feature_names) []
    | Some s ->
        let acc =
          Array.init (Array.length feature_names) (fun _ ->
              Array.make (n + 1) 0.0)
        in
        Array.iteri
          (fun i tree ->
            let p = Dist.prob s.target i in
            let fs = features_of ~n tree in
            Array.iteri (fun k v -> acc.(k).(v) <- acc.(k).(v) +. p) fs)
          s.trees;
        Array.map
          (fun dist ->
            let out = ref [] in
            for v = n downto 0 do
              if dist.(v) > 0.0 then out := (v, dist.(v)) :: !out
            done;
            !out)
          acc
  in
  {
    graph = g;
    n;
    m;
    alpha;
    edge_u;
    edge_v;
    leverage;
    is_bridge;
    counts = Array.make m 0;
    prev = Bytes.make m '\000';
    lag1 = Array.make m 0;
    trials = 0;
    invalid = 0;
    feat_hist =
      Array.init (Array.length feature_names) (fun _ -> Array.make (n + 1) 0);
    feat_expected;
    small;
    snapshots = [];
  }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let z_of t i =
  if t.is_bridge.(i) || t.trials = 0 then 0.0
  else
    let p = t.leverage.(i) in
    let nf = float_of_int t.trials in
    let sd = Float.sqrt (nf *. p *. (1.0 -. p)) in
    if sd <= 0.0 then 0.0 else (float_of_int t.counts.(i) -. (nf *. p)) /. sd

let edge_stats t =
  List.init t.m (fun i ->
      {
        u = t.edge_u.(i);
        v = t.edge_v.(i);
        leverage = t.leverage.(i);
        count = t.counts.(i);
        z = z_of t i;
        bridge = t.is_bridge.(i);
      })

let nonbridge_count t =
  Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 t.is_bridge

let z_threshold t =
  let m' = max 1 (nonbridge_count t) in
  Float.sqrt (2.0 *. Float.log (2.0 *. float_of_int m' /. t.alpha))

let max_z t =
  let acc = ref 0.0 in
  for i = 0 to t.m - 1 do
    if not t.is_bridge.(i) then acc := Float.max !acc (Float.abs (z_of t i))
  done;
  !acc

let sum_z2 t =
  let acc = ref 0.0 in
  for i = 0 to t.m - 1 do
    if not t.is_bridge.(i) then
      let z = z_of t i in
      acc := !acc +. (z *. z)
  done;
  !acc

let tv_edges t =
  if t.trials = 0 then Float.nan
  else
    let emp = Array.map float_of_int t.counts in
    let oracle = Array.map (fun p -> Float.max p 1e-300) t.leverage in
    match Dist.of_weights emp with
    | d -> Dist.tv d (Dist.of_weights oracle)
    | exception Invalid_argument _ -> Float.nan

let kl_edges t =
  if t.trials = 0 then Float.nan
  else
    let emp = Array.map float_of_int t.counts in
    let oracle = Array.map (fun p -> Float.max p 1e-300) t.leverage in
    match Dist.of_weights emp with
    | d -> Dist.kl d (Dist.of_weights oracle)
    | exception Invalid_argument _ -> Float.nan

(* One lag-1 autocorrelation pooled over the informative edges: their
   lag-1 covariances summed over their variances summed. A minimum of
   per-edge estimates would read the noisiest edge, well below [trials] on
   independent draws. *)
let ess t =
  let nf = float_of_int t.trials in
  if t.trials < 2 then Float.max 1.0 nf
  else begin
    let cov = ref 0.0 and var = ref 0.0 in
    let pairs = float_of_int (t.trials - 1) in
    for i = 0 to t.m - 1 do
      let p = float_of_int t.counts.(i) /. nf in
      if p > ess_info_lo && p < ess_info_hi then begin
        cov := !cov +. ((float_of_int t.lag1.(i) /. pairs) -. (p *. p));
        var := !var +. (p *. (1.0 -. p))
      end
    done;
    if !var = 0.0 then nf
    else
      let rho = Float.min 0.99 (Float.max (-0.99) (!cov /. !var)) in
      Float.min nf (Float.max 1.0 (nf *. (1.0 -. rho) /. (1.0 +. rho)))
  end

let small_tv t =
  match t.small with
  | None -> None
  | Some s ->
      if t.trials = 0 then Some Float.nan
      else Some (Dist.tv_counts ~counts:s.counts s.target)

let small_kl t =
  match t.small with
  | None -> None
  | Some s ->
      if t.trials = 0 then Some Float.nan
      else
        Some
          (match Dist.empirical s.counts with
          | d -> Dist.kl d s.target
          | exception Invalid_argument _ -> Float.nan)

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)

(* Laurent–Massart (2000): for X ~ chi-square with [df] degrees of freedom,
   P(X >= df + 2 sqrt(df x) + 2x) <= e^-x. With x = ln(1/alpha) this gives a
   level-alpha upper tail without an inverse-CDF table. *)
let chi2_upper ~df ~alpha =
  let df = float_of_int df in
  let x = Float.log (1.0 /. alpha) in
  df +. (2.0 *. Float.sqrt (df *. x)) +. (2.0 *. x)

let verdict t =
  let asymptotic_ready = t.trials >= min_trials in
  let nb = nonbridge_count t in
  let bridges = t.m - nb in
  let gates = ref [] in
  let add gate applied breached statistic threshold detail =
    gates := { gate; applied; breached; statistic; threshold; detail } :: !gates
  in
  add "valid-trees" true (t.invalid > 0) (float_of_int t.invalid) 0.0
    (Printf.sprintf "%d observed tree(s) were not spanning trees" t.invalid);
  let bridge_viol = ref 0 in
  for i = 0 to t.m - 1 do
    if t.is_bridge.(i) && t.counts.(i) <> t.trials then incr bridge_viol
  done;
  add "bridge-exact"
    (t.trials > 0 && bridges > 0)
    (!bridge_viol > 0)
    (float_of_int !bridge_viol) 0.0
    (Printf.sprintf "%d of %d bridge edge(s) missing from some tree"
       !bridge_viol bridges);
  let zt = z_threshold t in
  let mz = max_z t in
  add "bonferroni-z"
    (asymptotic_ready && nb > 0)
    (mz > zt) mz zt
    (Printf.sprintf "max |z| over %d non-bridge edge(s), alpha=%g" nb t.alpha);
  let chi2 = sum_z2 t in
  let chi2_t = chi2_upper ~df:(max 1 nb) ~alpha:t.alpha in
  add "chi2-edges"
    (asymptotic_ready && nb > 0)
    (chi2 > chi2_t) chi2 chi2_t
    (Printf.sprintf "sum z^2 vs Laurent-Massart tail at df=%d" nb);
  (match t.small with
  | None -> ()
  | Some s ->
      let support = Array.length s.trees in
      let stat = Dist.chi_square_stat ~counts:s.counts s.target in
      let thr = chi2_upper ~df:(max 1 (support - 1)) ~alpha:t.alpha in
      add "small-chi2" asymptotic_ready (stat > thr) stat thr
        (Printf.sprintf "exact-support chi-square, %d enumerated trees" support);
      add "small-support" (t.trials > 0)
        (s.foreign > 0)
        (float_of_int s.foreign) 0.0
        "observed trees outside the enumerated support");
  let gates = List.rev !gates in
  let pass =
    not (List.exists (fun g -> g.applied && g.breached) gates)
  in
  { pass; at_trials = t.trials; gates }

(* ------------------------------------------------------------------ *)
(* Accumulation                                                        *)

let take_snapshot t =
  let snap =
    {
      at = t.trials;
      s_max_z = max_z t;
      s_tv = tv_edges t;
      s_kl = kl_edges t;
      s_ess = ess t;
      s_small_tv = small_tv t;
    }
  in
  t.snapshots <- snap :: t.snapshots;
  Metrics.set_gauge "audit.max_z" snap.s_max_z;
  Metrics.set_gauge "audit.tv_edges" snap.s_tv;
  Metrics.set_gauge "audit.ess" snap.s_ess

let observe t tree =
  if not (Tree.is_spanning_tree t.graph tree) then begin
    t.invalid <- t.invalid + 1;
    Metrics.incr "audit.invalid"
  end
  else begin
    t.trials <- t.trials + 1;
    let first = t.trials = 1 in
    for i = 0 to t.m - 1 do
      let x = Tree.mem tree t.edge_u.(i) t.edge_v.(i) in
      if x then begin
        t.counts.(i) <- t.counts.(i) + 1;
        if (not first) && Bytes.get t.prev i = '\001' then
          t.lag1.(i) <- t.lag1.(i) + 1
      end;
      Bytes.set t.prev i (if x then '\001' else '\000')
    done;
    let fs = features_of ~n:t.n tree in
    Array.iteri (fun k v -> t.feat_hist.(k).(v) <- t.feat_hist.(k).(v) + 1) fs;
    (match t.small with
    | None -> ()
    | Some s -> (
        match s.lookup tree with
        | i -> s.counts.(i) <- s.counts.(i) + 1
        | exception Invalid_argument _ -> s.foreign <- s.foreign + 1));
    Metrics.incr "audit.trees";
    (* Heavier derived statistics (TV over m edges, ESS scan) are refreshed
       only at power-of-two trial counts so observation stays O(n + m). *)
    if t.trials land (t.trials - 1) = 0 then take_snapshot t
  end

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)

type feature = {
  feature : string;
  histogram : (int * int) list;
  expected : (int * float) list;
}

type small_report = {
  support : int;
  observed_support : int;
  foreign : int;
  r_small_tv : float;
  r_small_kl : float;
  r_small_chi2 : float;
}

type report = {
  r_n : int;
  r_m : int;
  r_alpha : float;
  r_trials : int;
  r_invalid : int;
  r_ess : float;
  r_tv_edges : float;
  r_kl_edges : float;
  r_edges : edge_stat list;
  r_features : feature list;
  r_snapshots : snapshot list;
  r_small : small_report option;
  r_verdict : verdict option;
}

let features t =
  List.init (Array.length feature_names) (fun k ->
      let hist = ref [] in
      for v = t.n downto 0 do
        if t.feat_hist.(k).(v) > 0 then
          hist := (v, t.feat_hist.(k).(v)) :: !hist
      done;
      { feature = feature_names.(k); histogram = !hist;
        expected = t.feat_expected.(k) })

let gate_to_json (g : gate) =
  Json.Obj
    [
      ("gate", Json.String g.gate);
      ("applied", Json.Bool g.applied);
      ("breached", Json.Bool g.breached);
      ("statistic", Json.float_opt g.statistic);
      ("threshold", Json.float_opt g.threshold);
      ("detail", Json.String g.detail);
    ]

let verdict_to_json (v : verdict) =
  Json.Obj
    [
      ("type", Json.String "verdict");
      ("pass", Json.Bool v.pass);
      ("at_trials", Json.Int v.at_trials);
      ("gates", Json.List (List.map gate_to_json v.gates));
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       [
         ("type", Json.String "audit-header");
         ("n", Json.Int t.n);
         ("m", Json.Int t.m);
         ("alpha", Json.Float t.alpha);
         ("min_trials", Json.Int min_trials);
         ("trials", Json.Int t.trials);
         ("invalid", Json.Int t.invalid);
         ("ess", Json.float_opt (ess t));
         ("tv_edges", Json.float_opt (tv_edges t));
         ("kl_edges", Json.float_opt (kl_edges t));
         ("max_z", Json.float_opt (max_z t));
         ("z_threshold", Json.float_opt (z_threshold t));
       ]);
  List.iter
    (fun e ->
      line
        (Json.Obj
           [
             ("type", Json.String "edge");
             ("u", Json.Int e.u);
             ("v", Json.Int e.v);
             ("leverage", Json.Float e.leverage);
             ("count", Json.Int e.count);
             ("z", Json.float_opt e.z);
             ("bridge", Json.Bool e.bridge);
           ]))
    (edge_stats t);
  List.iter
    (fun f ->
      line
        (Json.Obj
           [
             ("type", Json.String "feature");
             ("name", Json.String f.feature);
             ( "histogram",
               Json.List
                 (List.map
                    (fun (v, c) -> Json.List [ Json.Int v; Json.Int c ])
                    f.histogram) );
             ( "expected",
               Json.List
                 (List.map
                    (fun (v, p) -> Json.List [ Json.Int v; Json.Float p ])
                    f.expected) );
           ]))
    (features t);
  List.iter
    (fun s ->
      line
        (Json.Obj
           [
             ("type", Json.String "snapshot");
             ("at", Json.Int s.at);
             ("max_z", Json.float_opt s.s_max_z);
             ("tv", Json.float_opt s.s_tv);
             ("kl", Json.float_opt s.s_kl);
             ("ess", Json.float_opt s.s_ess);
             ( "small_tv",
               match s.s_small_tv with
               | None -> Json.Null
               | Some x -> Json.float_opt x );
           ]))
    (List.rev t.snapshots);
  (match t.small with
  | None -> ()
  | Some s ->
      let observed =
        Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 s.counts
      in
      line
        (Json.Obj
           [
             ("type", Json.String "small");
             ("support", Json.Int (Array.length s.trees));
             ("observed_support", Json.Int observed);
             ("foreign", Json.Int s.foreign);
             ( "tv",
               Json.float_opt
                 (match small_tv t with Some x -> x | None -> Float.nan) );
             ( "kl",
               Json.float_opt
                 (match small_kl t with Some x -> x | None -> Float.nan) );
             ( "chi2",
               Json.float_opt (Dist.chi_square_stat ~counts:s.counts s.target)
             );
           ]));
  line (verdict_to_json (verdict t));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Artifact parsing                                                    *)

(* A field that older artifacts lack reads as [default]. *)
let or_default get default key obj =
  match Json.member key obj with None -> Ok default | Some _ -> get key obj

let ( let* ) = Result.bind

let pairs_of key obj of_snd =
  match Option.bind (Json.member key obj) Json.to_list_opt with
  | None -> Ok []
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ a; b ] :: rest -> (
            match (Json.to_int_opt a, of_snd b) with
            | Some v, Some s -> go ((v, s) :: acc) rest
            | _ -> Error (Printf.sprintf "malformed pair in %S" key))
        | _ -> Error (Printf.sprintf "malformed pair in %S" key)
      in
      go [] items

let parse_gate obj =
  let* gate = Json.string_field "gate" obj in
  let* applied = Json.bool_field "applied" obj in
  let* breached = Json.bool_field "breached" obj in
  let* statistic = Json.float_field "statistic" obj in
  let* threshold = Json.float_field "threshold" obj in
  let* detail = Json.string_field "detail" obj in
  Ok { gate; applied; breached; statistic; threshold; detail }

let of_jsonl s =
  let header = ref None in
  let edges = ref [] in
  let feats = ref [] in
  let snaps = ref [] in
  let small = ref None in
  let verd = ref None in
  let add_line () _raw obj =
    match Json.member "type" obj with
    | Some (Json.String "audit-header") ->
        let* n = Json.int_field "n" obj in
        let* m = Json.int_field "m" obj in
        let* al = Json.float_field "alpha" obj in
        let* trials = Json.int_field "trials" obj in
        let* invalid = or_default Json.int_field 0 "invalid" obj in
        let* ess = or_default Json.float_field nan "ess" obj in
        let* tv = or_default Json.float_field nan "tv_edges" obj in
        let* kl = or_default Json.float_field nan "kl_edges" obj in
        header := Some (n, m, al, trials, invalid, ess, tv, kl);
        Ok ()
    | Some (Json.String "edge") ->
        let* u = Json.int_field "u" obj in
        let* v = Json.int_field "v" obj in
        let* leverage = Json.float_field "leverage" obj in
        let* count = Json.int_field "count" obj in
        let* z = or_default Json.float_field 0.0 "z" obj in
        let* bridge = Json.bool_field "bridge" obj in
        edges := { u; v; leverage; count; z; bridge } :: !edges;
        Ok ()
    | Some (Json.String "feature") ->
        let* name = Json.string_field "name" obj in
        let* histogram = pairs_of "histogram" obj Json.to_int_opt in
        let* expected = pairs_of "expected" obj Json.to_float_opt in
        feats := { feature = name; histogram; expected } :: !feats;
        Ok ()
    | Some (Json.String "snapshot") ->
        let* at = Json.int_field "at" obj in
        let* s_max_z = or_default Json.float_field nan "max_z" obj in
        let* s_tv = or_default Json.float_field nan "tv" obj in
        let* s_kl = or_default Json.float_field nan "kl" obj in
        let* s_ess = or_default Json.float_field nan "ess" obj in
        let s_small_tv =
          match Json.member "small_tv" obj with
          | Some Json.Null | None -> None
          | Some v -> Json.to_float_opt v
        in
        snaps := { at; s_max_z; s_tv; s_kl; s_ess; s_small_tv } :: !snaps;
        Ok ()
    | Some (Json.String "small") ->
        let* support = Json.int_field "support" obj in
        let* observed_support = Json.int_field "observed_support" obj in
        let* foreign = or_default Json.int_field 0 "foreign" obj in
        let* r_small_tv = or_default Json.float_field nan "tv" obj in
        let* r_small_kl = or_default Json.float_field nan "kl" obj in
        let* r_small_chi2 = or_default Json.float_field nan "chi2" obj in
        small :=
          Some
            { support; observed_support; foreign; r_small_tv; r_small_kl;
              r_small_chi2 };
        Ok ()
    | Some (Json.String "verdict") ->
        let* pass = Json.bool_field "pass" obj in
        let* at_trials = Json.int_field "at_trials" obj in
        let* gates =
          match Option.bind (Json.member "gates" obj) Json.to_list_opt with
          | None -> Ok []
          | Some gs ->
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | g :: rest ->
                    let* g = parse_gate g in
                    go (g :: acc) rest
              in
              go [] gs
        in
        verd := Some { pass; at_trials; gates };
        Ok ()
    | _ -> Ok () (* forward compatibility *)
  in
  let* () = Json.fold_lines add_line () s in
  match !header with
  | None -> Error "no audit-header line"
  | Some (r_n, r_m, r_alpha, r_trials, r_invalid, r_ess, r_tv, r_kl) ->
      Ok
        {
          r_n;
          r_m;
          r_alpha;
          r_trials;
          r_invalid;
          r_ess;
          r_tv_edges = r_tv;
          r_kl_edges = r_kl;
          r_edges = List.rev !edges;
          r_features = List.rev !feats;
          r_snapshots = List.rev !snaps;
          r_small = !small;
          r_verdict = !verd;
        }
