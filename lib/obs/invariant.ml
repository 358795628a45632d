(* Online invariant checking over the Net event stream.

   The monitor consumes the same canonical records the flight recorder
   captures and checks, record by record, that the simulator respected the
   model: Lenzen's O(n)-words-per-machine-per-round routing budget, flow
   conservation per primitive kind, and a monotone round clock; at the end
   of a run the accumulated per-label costs are reconciled against the
   net's ledger. Violations are structured reports, mirrored into the
   Metrics registry. *)

type violation = {
  invariant : string;
  seq : int option;
  label : string;
  machine : int option;
  round : float option;
  detail : string;
}

type acc = { mutable a_rounds : float; mutable a_messages : int; mutable a_words : int }

type t = {
  machines : int;
  mutable expected_round : float;
  mutable rev_violations : violation list;
  mutable count : int;
  by_label : (string, acc) Hashtbl.t;
  mutable acc_rounds : float;
  mutable acc_messages : int;
  mutable acc_words : int;
}

let eps = 1e-6

let create ~machines () =
  if machines < 1 then invalid_arg "Invariant.create: machines must be >= 1";
  {
    machines;
    expected_round = 0.0;
    rev_violations = [];
    count = 0;
    by_label = Hashtbl.create 16;
    acc_rounds = 0.0;
    acc_messages = 0;
    acc_words = 0;
  }

let acc_for t label =
  match Hashtbl.find_opt t.by_label label with
  | Some a -> a
  | None ->
      let a = { a_rounds = 0.0; a_messages = 0; a_words = 0 } in
      Hashtbl.add t.by_label label a;
      a

(* Register [vs] (in order): store, count, and mirror each into Metrics
   counters. *)
let report t vs =
  List.iter
    (fun v ->
      t.rev_violations <- v :: t.rev_violations;
      t.count <- t.count + 1;
      Metrics.incr "invariant.violations";
      Metrics.incr ("invariant." ^ v.invariant))
    vs;
  vs

let sum = Array.fold_left ( + ) 0

let observe t (r : Recorder.record) =
  let vs = ref [] in
  let add ?machine invariant detail =
    vs :=
      {
        invariant;
        seq = Some r.Recorder.seq;
        label = r.Recorder.label;
        machine;
        round = Some r.Recorder.round_end;
        detail;
      }
      :: !vs
  in
  let n = t.machines in
  let { Recorder.kind; rounds; messages; words; max_load; sent; recv; _ } =
    r
  in
  let len = Array.length sent in
  let shaped = Array.length recv = len && (len = 0 || len = n) in
  if not shaped then
    add "shape"
      (Printf.sprintf
         "per-machine arrays have lengths %d/%d (expected 0 or %d)" len
         (Array.length recv) n);
  if rounds < -.eps || messages < 0 || words < 0 || max_load < 0 then
    add "shape" "negative cost field";
  (* Round clock: each record starts where the previous one ended and
     advances by exactly its own rounds. *)
  if Float.abs (r.Recorder.round_start -. t.expected_round) > eps then
    add "monotonic"
      (Printf.sprintf "round_start %g but previous record ended at %g"
         r.Recorder.round_start t.expected_round);
  if Float.abs (r.Recorder.round_end -. (r.Recorder.round_start +. rounds)) > eps
  then
    add "monotonic"
      (Printf.sprintf "round_end %g <> round_start %g + rounds %g"
         r.Recorder.round_end r.Recorder.round_start rounds);
  t.expected_round <- r.Recorder.round_end;
  if shaped && len = n then begin
    let sum_sent = sum sent and sum_recv = sum recv in
    (* Lenzen cap: in [rounds] rounds no machine may send or receive more
       than [rounds * n] words. *)
    let budget = rounds *. float_of_int n in
    let max_l = ref 0 in
    for i = 0 to n - 1 do
      let load = max sent.(i) recv.(i) in
      if load > !max_l then max_l := load;
      if float_of_int load > budget +. eps then
        add ~machine:i "lenzen_cap"
          (Printf.sprintf
             "machine %d moved %d words in %g rounds (budget %g = rounds x n)"
             i load rounds budget)
    done;
    if !max_l <> max_load then
      add "shape"
        (Printf.sprintf "max_load %d <> per-machine maximum %d" max_load !max_l);
    (* Flow conservation, per primitive kind (the metering layer books
       retransmission waves as ordinary exchanges, so drops never unbalance
       a booked record — they only add later [:retry] records). *)
    match kind with
    | "exchange" | "all_to_all" ->
        if sum_sent <> words || sum_recv <> words then
          add "conservation"
            (Printf.sprintf "sent %d / received %d words, booked %d" sum_sent
               sum_recv words)
    | "broadcast" ->
        if sum_recv <> words || sum_sent * (n - 1) <> words then
          add "conservation"
            (Printf.sprintf
               "broadcast payload %d, receipts %d, booked %d (n = %d)"
               sum_sent sum_recv words n)
    | "charge" ->
        if sum_sent <> 0 || sum_recv <> 0 || words <> 0 then
          add "conservation" "analytic charge moved words"
    | k -> add "shape" (Printf.sprintf "unknown primitive kind %S" k)
  end
  else if len = 0 && String.equal kind "charge" && words <> 0 then
    add "conservation" "analytic charge booked words";
  (* Per-label accumulation for the end-of-run ledger reconciliation. *)
  let a = acc_for t r.Recorder.label in
  a.a_rounds <- a.a_rounds +. rounds;
  a.a_messages <- a.a_messages + messages;
  a.a_words <- a.a_words + words;
  t.acc_rounds <- t.acc_rounds +. rounds;
  t.acc_messages <- t.acc_messages + messages;
  t.acc_words <- t.acc_words + words;
  report t (List.rev !vs)

let check_ledger t ~ledger ~rounds ~messages ~words =
  let vs = ref [] in
  let add label detail =
    vs :=
      {
        invariant = "ledger";
        seq = None;
        label;
        machine = None;
        round = None;
        detail;
      }
      :: !vs
  in
  if
    Float.abs (t.acc_rounds -. rounds) > eps
    || t.acc_messages <> messages || t.acc_words <> words
  then
    add "<totals>"
      (Printf.sprintf
         "event stream saw %g rounds / %d messages / %d words, net totals \
          are %g / %d / %d"
         t.acc_rounds t.acc_messages t.acc_words rounds messages words);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (label, l_rounds, l_messages, l_words) ->
      Hashtbl.replace seen label ();
      match Hashtbl.find_opt t.by_label label with
      | None ->
          add label
            (Printf.sprintf
               "ledger books %g rounds under a label the event stream never \
                saw"
               l_rounds)
      | Some a ->
          if
            Float.abs (a.a_rounds -. l_rounds) > eps
            || a.a_messages <> l_messages || a.a_words <> l_words
          then
            add label
              (Printf.sprintf
                 "events sum to %g rounds / %d messages / %d words, ledger \
                  says %g / %d / %d"
                 a.a_rounds a.a_messages a.a_words l_rounds l_messages l_words))
    ledger;
  Hashtbl.iter
    (fun label _ ->
      if not (Hashtbl.mem seen label) then
        add label "event stream booked under a label missing from the ledger")
    t.by_label;
  report t (List.rev !vs)

let violations t = List.rev t.rev_violations
let count t = t.count

let check_log ~machines records =
  let t = create ~machines () in
  List.iter (fun r -> ignore (observe t r)) records;
  violations t

let pp_violation fmt v =
  Format.fprintf fmt "[%s]%s%s label=%S%s: %s" v.invariant
    (match v.seq with
    | Some s -> Printf.sprintf " seq=%d" s
    | None -> "")
    (match v.round with
    | Some r -> Printf.sprintf " round=%g" r
    | None -> "")
    v.label
    (match v.machine with
    | Some m -> Printf.sprintf " machine=%d" m
    | None -> "")
    v.detail
