module Prng = Cc_util.Prng

type spec = {
  drop_prob : float;
  corrupt_prob : float;
  straggle_prob : float;
  max_retries : int;
  crashes : (int * float) list;
  seed : int;
}

let default_spec =
  {
    drop_prob = 0.0;
    corrupt_prob = 0.0;
    straggle_prob = 0.0;
    max_retries = 8;
    crashes = [];
    seed = 0;
  }

let spec ?(drop_prob = 0.0) ?(corrupt_prob = 0.0) ?(straggle_prob = 0.0)
    ?(max_retries = 8) ?(crashes = []) ?(seed = 0) () =
  { drop_prob; corrupt_prob; straggle_prob; max_retries; crashes; seed }

type t = {
  spec : spec;
  prng : Prng.t;
  crashed_set : (int, unit) Hashtbl.t;
  mutable pending_crashes : (int * float) list; (* sorted by round *)
  mutable n_retransmits : int;
  mutable n_reroutes : int;
  mutable n_reruns : int;
}

let check_prob name p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg (Printf.sprintf "Fault.create: %s must be in [0, 1)" name)

let create spec =
  check_prob "drop_prob" spec.drop_prob;
  check_prob "corrupt_prob" spec.corrupt_prob;
  check_prob "straggle_prob" spec.straggle_prob;
  if spec.max_retries < 0 then invalid_arg "Fault.create: max_retries < 0";
  List.iter
    (fun (m, r) ->
      if m < 0 then invalid_arg "Fault.create: negative machine in crash schedule";
      if r < 0.0 then invalid_arg "Fault.create: negative crash round")
    spec.crashes;
  {
    spec;
    (* Decorrelate the fault stream from same-seed algorithm streams. *)
    prng = Prng.create ~seed:(spec.seed lxor 0xfa17);
    crashed_set = Hashtbl.create 4;
    pending_crashes =
      List.sort (fun (_, r1) (_, r2) -> compare r1 r2) spec.crashes;
    n_retransmits = 0;
    n_reroutes = 0;
    n_reruns = 0;
  }

let spec_of t = t.spec

type verdict = Deliver | Drop | Corrupt

let attempt t =
  if t.spec.drop_prob = 0.0 && t.spec.corrupt_prob = 0.0 then Deliver
  else begin
    let x = Prng.float t.prng 1.0 in
    if x < t.spec.drop_prob then Drop
    else if x < t.spec.drop_prob +. t.spec.corrupt_prob then Corrupt
    else Deliver
  end

let straggle_rounds t =
  if t.spec.straggle_prob = 0.0 then 0
  else if Prng.float t.prng 1.0 >= t.spec.straggle_prob then 0
  else begin
    (* 1 + Geometric(1/2): a slow machine holds the round barrier. *)
    let rec go acc = if Prng.bool t.prng then go (acc + 1) else acc in
    go 1
  end

let crash_now t m = Hashtbl.replace t.crashed_set m ()

let advance t ~now =
  let rec fire = function
    | (m, r) :: rest when r <= now ->
        crash_now t m;
        fire rest
    | rest -> t.pending_crashes <- rest
  in
  fire t.pending_crashes

let is_crashed t m = Hashtbl.mem t.crashed_set m
let crashed t = List.sort compare (Hashtbl.fold (fun m () acc -> m :: acc) t.crashed_set [])
let any_crashed t = Hashtbl.length t.crashed_set > 0

let next_live t ~n from =
  if n <= 0 then invalid_arg "Fault.next_live: n must be positive";
  (* Deterministic early exit when the whole clique is down: every start
     index (negative, in range, or >= n) must yield None, not depend on
     where the circular scan happens to begin. Crash schedules may name
     machines outside [0, n), so count only the in-range ones. *)
  let crashed_in_range =
    Hashtbl.fold
      (fun m () acc -> if m >= 0 && m < n then acc + 1 else acc)
      t.crashed_set 0
  in
  if crashed_in_range >= n then None
  else
    let rec go i remaining =
      if remaining = 0 then None
      else if not (is_crashed t (i mod n)) then Some (i mod n)
      else go (i + 1) (remaining - 1)
    in
    go (((from mod n) + n) mod n) n

let note_retransmit t k = t.n_retransmits <- t.n_retransmits + k
let note_reroute t k = t.n_reroutes <- t.n_reroutes + k
let note_rerun t = t.n_reruns <- t.n_reruns + 1

type failure = { reason : string; crashed : int list }

type health =
  | Healthy
  | Healed of { retransmits : int; reroutes : int; reruns : int }
  | Unrecoverable of failure

let snapshot t = (t.n_retransmits, t.n_reroutes, t.n_reruns)

let health_of t ~before:(rt0, rr0, ru0) =
  let rt = t.n_retransmits - rt0
  and rr = t.n_reroutes - rr0
  and ru = t.n_reruns - ru0 in
  if rt = 0 && rr = 0 && ru = 0 then Healthy
  else Healed { retransmits = rt; reroutes = rr; reruns = ru }

let pp_health fmt = function
  | Healthy -> Format.fprintf fmt "healthy"
  | Healed { retransmits; reroutes; reruns } ->
      Format.fprintf fmt "healed (retransmits=%d, reroutes=%d, reruns=%d)"
        retransmits reroutes reruns
  | Unrecoverable { reason; crashed = [] } ->
      Format.fprintf fmt "unrecoverable: %s" reason
  | Unrecoverable { reason; crashed } ->
      Format.fprintf fmt "unrecoverable: %s (crashed machines: %s)" reason
        (String.concat ", " (List.map string_of_int crashed))
