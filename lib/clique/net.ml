type entry = { mutable rounds : float; mutable messages : int; mutable words : int }

type event_kind = Exchange | Broadcast | All_to_all | Aggregate | Charge

type event = {
  kind : event_kind;
  label : string;
  rounds : float;
  messages : int;
  words : int;
  max_load : int;
  total_rounds : float;
  sent : int array;
  recv : int array;
  total_retransmits : int;
  total_dropped : int;
}

type sink_id = int

type t = {
  n : int;
  mutable total_rounds : float;
  mutable total_messages : int;
  mutable total_words : int;
  mutable total_retransmits : int;
  mutable total_dropped : int;
  mutable overhead_rounds : float;
  by_label : (string, entry) Hashtbl.t;
  mutable injected : Fault.t option;
  (* Sinks in subscription order. *)
  mutable sinks : (sink_id * (event -> unit)) list;
  mutable next_sink : sink_id;
}

let create ~n =
  if n < 2 then invalid_arg "Net.create: need at least 2 machines";
  {
    n;
    total_rounds = 0.0;
    total_messages = 0;
    total_words = 0;
    total_retransmits = 0;
    total_dropped = 0;
    overhead_rounds = 0.0;
    by_label = Hashtbl.create 16;
    injected = None;
    sinks = [];
    next_sink = 0;
  }

let n t = t.n
let faults t = t.injected

let add_sink t f =
  let id = t.next_sink in
  t.next_sink <- id + 1;
  t.sinks <- t.sinks @ [ (id, f) ];
  id

let remove_sink t id = t.sinks <- List.filter (fun (i, _) -> i <> id) t.sinks

let kind_name = function
  | Exchange -> "exchange"
  | Broadcast -> "broadcast"
  | All_to_all -> "all_to_all"
  | Aggregate -> "aggregate"
  | Charge -> "charge"

(* The per-kind max-load histogram names, constants so that a booking
   builds no string. *)
let max_load_metric = function
  | Exchange -> "net.max_load.exchange"
  | Broadcast -> "net.max_load.broadcast"
  | All_to_all -> "net.max_load.all_to_all"
  | Aggregate -> "net.max_load.aggregate"
  | Charge -> "net.max_load.charge"

let with_faults f t =
  List.iter
    (fun (m, _) ->
      if m >= t.n then
        invalid_arg
          (Printf.sprintf
             "Net.with_faults: crash of machine %d, outside the clique [0, %d)"
             m t.n))
    (Fault.spec_of f).Fault.crashes;
  t.injected <- Some f;
  t

type packet = { src : int; dst : int; words : int }

let entry_for t label =
  match Hashtbl.find_opt t.by_label label with
  | Some e -> e
  | None ->
      let e = { rounds = 0.0; messages = 0; words = 0 } in
      Hashtbl.add t.by_label label e;
      e

let book ?(sent = [||]) ?(recv = [||]) t ~kind ~label ~rounds ~messages ~words
    ~max_load =
  t.total_rounds <- t.total_rounds +. rounds;
  t.total_messages <- t.total_messages + messages;
  t.total_words <- t.total_words + words;
  let e = entry_for t label in
  e.rounds <- e.rounds +. rounds;
  e.messages <- e.messages + messages;
  e.words <- e.words + words;
  (* Observability taps: caller-installed sinks, the metrics registry, and
     the active trace all see every booked primitive. Pure observation —
     none may (nor can, through this interface) change the ledger or the
     fault schedule. *)
  if max_load > 0 then begin
    let x = float_of_int max_load in
    Cc_obs.Metrics.observe "net.max_load" x;
    Cc_obs.Metrics.observe (max_load_metric kind) x
  end;
  (match t.sinks with
  | [] -> ()
  | sinks ->
      let ev =
        {
          kind;
          label;
          rounds;
          messages;
          words;
          max_load;
          total_rounds = t.total_rounds;
          sent;
          recv;
          total_retransmits = t.total_retransmits;
          total_dropped = t.total_dropped;
        }
      in
      List.iter (fun (_, f) -> f ev) sinks);
  if Cc_obs.Trace.enabled () then
    Cc_obs.Trace.net_event ~rounds ~messages ~words ~max_load;
  (* Crash-stop failures fire at round boundaries: booking a primitive ends
     its rounds, so scheduled crashes up to the new clock take effect now. *)
  match t.injected with
  | Some f -> Fault.advance f ~now:t.total_rounds
  | None -> ()

let exchange t ~label packets =
  let sent = Array.make t.n 0 and received = Array.make t.n 0 in
  let messages = ref 0 and total_words = ref 0 in
  List.iter
    (fun { src; dst; words } ->
      if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
        invalid_arg "Net.exchange: machine ID out of range";
      if words < 0 then invalid_arg "Net.exchange: negative payload";
      if src <> dst && words > 0 then begin
        sent.(src) <- sent.(src) + words;
        received.(dst) <- received.(dst) + words;
        incr messages;
        total_words := !total_words + words
      end)
    packets;
  let load = ref 0 in
  for i = 0 to t.n - 1 do
    load := max !load (max sent.(i) received.(i))
  done;
  if !load > 0 then begin
    let rounds = Float.of_int ((!load + t.n - 1) / t.n) in
    book t ~kind:Exchange ~label ~rounds ~messages:!messages
      ~words:!total_words ~max_load:!load ~sent ~recv:received
  end

let broadcast t ~label ~src ~words =
  if src < 0 || src >= t.n then invalid_arg "Net.broadcast: bad source";
  if words < 0 then invalid_arg "Net.broadcast: negative payload";
  if words > 0 then
    (* Broadcast tree: src splits the payload into n shares of
       ceil(words/n) words each, then every machine rebroadcasts its share.
       Each step moves at most n * ceil(words/n) words through any machine,
       i.e. ceil(words/n) rounds per step; we book the standard
       O(ceil(W/n) + 1) accounting as max 1 (ceil(words/n)) rounds, folding
       the two-step tree's constant factor into the big-O (the same
       convention every other collective here uses). *)
    let rounds = Float.of_int (max 1 ((words + t.n - 1) / t.n)) in
    (* The event carries the logical pattern — src emits its payload once,
       every other machine takes a copy — not the tree's relay hops, so a
       per-machine profile points at the source as the hot machine while the
       booked rounds keep the tree's balanced cost. *)
    let sent = Array.make t.n 0 and recv = Array.make t.n words in
    sent.(src) <- words;
    recv.(src) <- 0;
    book t ~kind:Broadcast ~label ~rounds ~messages:(t.n - 1)
      ~words:(words * (t.n - 1))
      ~max_load:words ~sent ~recv

let all_to_all t ~label ~words_each =
  if words_each < 0 then invalid_arg "Net.all_to_all: negative payload";
  if words_each > 0 then begin
    let messages = t.n * (t.n - 1) in
    let per_machine = words_each * (t.n - 1) in
    let sent = Array.make t.n per_machine
    and recv = Array.make t.n per_machine in
    book t ~kind:All_to_all ~label
      ~rounds:(Float.of_int (max 1 words_each))
      ~messages ~words:(messages * words_each) ~max_load:per_machine ~sent
      ~recv
  end

let aggregate t ~label ?(combinable = true) ~contributors ~dst words_each =
  if dst < 0 || dst >= t.n then invalid_arg "Net.aggregate: bad destination";
  if words_each < 0 then invalid_arg "Net.aggregate: negative payload";
  let k =
    List.fold_left
      (fun acc src ->
        if src < 0 || src >= t.n then invalid_arg "Net.aggregate: bad contributor";
        if src = dst then acc else acc + 1)
      0 contributors
  in
  if k > 0 && words_each > 0 then begin
    let total = k * words_each in
    let rounds =
      if combinable then Float.of_int (max 1 ((words_each + t.n - 1) / t.n))
      else Float.of_int ((total + t.n - 1) / t.n)
    in
    (* Each contributor emits its share; the destination takes delivery of
       one combined value when combining is possible, all [k] otherwise. *)
    let received = if combinable then words_each else total in
    let sent = Array.make t.n 0 and recv = Array.make t.n 0 in
    List.iter
      (fun src -> if src <> dst then sent.(src) <- sent.(src) + words_each)
      contributors;
    recv.(dst) <- received;
    book t ~kind:Aggregate ~label ~rounds ~messages:k ~words:total
      ~max_load:(Array.fold_left max received sent)
      ~sent ~recv
  end

let charge t ~label rounds =
  if rounds < 0.0 then invalid_arg "Net.charge: negative rounds";
  book t ~kind:Charge ~label ~rounds ~messages:0 ~words:0 ~max_load:0

let charge_overhead t ~label rounds =
  charge t ~label rounds;
  t.overhead_rounds <- t.overhead_rounds +. rounds

let note_overhead t rounds =
  if rounds < 0.0 then invalid_arg "Net.note_overhead: negative rounds";
  t.overhead_rounds <- t.overhead_rounds +. rounds

let rounds t = t.total_rounds
let messages t = t.total_messages
let words t = t.total_words
let retransmits t = t.total_retransmits
let dropped t = t.total_dropped
let overhead_rounds t = t.overhead_rounds

(* --- reliable delivery on top of the fault layer --- *)

type delivery = Delivered | Corrupted | Lost

let retry_label label = label ^ ":retry"

(* Book [packets] (already validated) as one retransmission wave plus an
   exponential backoff wait, all under the [:retry] suffix; the extra rounds
   are also accumulated in [overhead_rounds]. Acks ride for free: one word
   per delivered packet always fits the per-machine O(n) round budget. *)
let book_retry t ~label ~attempt packets =
  let before = t.total_rounds in
  exchange t ~label:(retry_label label) packets;
  let backoff = Float.of_int (1 lsl min 10 (attempt - 1)) in
  book t ~kind:Charge ~label:(retry_label label) ~rounds:backoff ~messages:0
    ~words:0 ~max_load:0;
  let k = List.length packets in
  t.total_retransmits <- t.total_retransmits + k;
  Cc_obs.Metrics.incr ~by:k "net.retransmits";
  t.overhead_rounds <- t.overhead_rounds +. (t.total_rounds -. before)

let book_straggle t ~label f =
  let s = Fault.straggle_rounds f in
  if s > 0 then begin
    let rounds = Float.of_int s in
    book t ~kind:Charge ~label:(label ^ ":straggle") ~rounds ~messages:0
      ~words:0 ~max_load:0;
    t.overhead_rounds <- t.overhead_rounds +. rounds
  end

(* Deliver one wave of [pending] packet indices; returns the still-dropped
   subset. Fault decisions are drawn in index order, deterministically. *)
let judge_wave t f arr out pending =
  List.filter
    (fun i ->
      let { src; dst; words } = arr.(i) in
      if src = dst || words = 0 then begin
        out.(i) <- Delivered;
        false
      end
      else if Fault.is_crashed f src || Fault.is_crashed f dst then begin
        out.(i) <- Lost;
        t.total_dropped <- t.total_dropped + 1;
        Cc_obs.Metrics.incr "net.dropped";
        false
      end
      else
        match Fault.attempt f with
        | Fault.Deliver ->
            out.(i) <- Delivered;
            false
        | Fault.Corrupt ->
            (* Bit flips are invisible to the transport; detection (and any
               re-run) is the application's job. *)
            out.(i) <- Corrupted;
            false
        | Fault.Drop ->
            t.total_dropped <- t.total_dropped + 1;
            Cc_obs.Metrics.incr "net.dropped";
            true)
    pending

let reliable_exchange t ~label packets =
  match t.injected with
  | None ->
      exchange t ~label packets;
      Array.make (List.length packets) Delivered
  | Some f ->
      let arr = Array.of_list packets in
      let out = Array.make (Array.length arr) Delivered in
      exchange t ~label packets;
      book_straggle t ~label f;
      let pending = ref (List.init (Array.length arr) (fun i -> i)) in
      pending := judge_wave t f arr out !pending;
      let attempt = ref 0 in
      while !pending <> [] && !attempt < (Fault.spec_of f).Fault.max_retries do
        incr attempt;
        let wave = List.map (fun i -> arr.(i)) !pending in
        book_retry t ~label ~attempt:!attempt wave;
        Fault.note_retransmit f (List.length wave);
        pending := judge_wave t f arr out !pending
      done;
      List.iter (fun i -> out.(i) <- Lost) !pending;
      out

let reliable_broadcast t ~label ~src ~words =
  match t.injected with
  | None ->
      broadcast t ~label ~src ~words;
      Array.make t.n Delivered
  | Some f ->
      broadcast t ~label ~src ~words;
      book_straggle t ~label f;
      let out = Array.make t.n Delivered in
      if Fault.is_crashed f src then begin
        for dst = 0 to t.n - 1 do
          if dst <> src then begin
            out.(dst) <- Lost;
            t.total_dropped <- t.total_dropped + 1;
            Cc_obs.Metrics.incr "net.dropped"
          end
        done;
        out
      end
      else begin
        let arr =
          Array.init t.n (fun dst -> { src; dst; words = (if dst = src then 0 else words) })
        in
        let pending = ref (List.init t.n (fun i -> i)) in
        pending := judge_wave t f arr out !pending;
        let attempt = ref 0 in
        while !pending <> [] && !attempt < (Fault.spec_of f).Fault.max_retries do
          incr attempt;
          let wave = List.map (fun i -> arr.(i)) !pending in
          book_retry t ~label ~attempt:!attempt wave;
          Fault.note_retransmit f (List.length wave);
          pending := judge_wave t f arr out !pending
        done;
        List.iter (fun i -> out.(i) <- Lost) !pending;
        out
      end

let ledger t =
  Hashtbl.fold
    (fun label (e : entry) acc -> (label, e.rounds, e.messages, e.words) :: acc)
    t.by_label []
  |> List.sort (fun (l1, r1, _, _) (l2, r2, _, _) ->
         (* Descending rounds, ties broken by label so the ordering never
            depends on Hashtbl fold order. *)
         match compare r2 r1 with 0 -> compare l1 l2 | c -> c)

let word_bits t = max 8 (int_of_float (Float.ceil (Float.log2 (Float.of_int t.n))))

let words_for_bits t bits =
  if bits < 0 then invalid_arg "Net.words_for_bits: negative bits";
  if bits = 0 then 0 else max 1 ((bits + word_bits t - 1) / word_bits t)

let entry_words t =
  let lg = int_of_float (Float.ceil (Float.log2 (Float.of_int t.n))) in
  max 1 (words_for_bits t (lg * lg))

let pp_totals fmt t =
  Format.fprintf fmt "total rounds: %.1f, messages: %d, words: %d"
    t.total_rounds t.total_messages t.total_words

let pp_fault_summary fmt t =
  Format.fprintf fmt "faults: %d retransmits, %d dropped, %.1f overhead rounds"
    t.total_retransmits t.total_dropped t.overhead_rounds

let ledger_table t =
  let module Table = Cc_util.Table in
  let table =
    Table.create ~title:"per-label round ledger"
      ~columns:[ "label"; "rounds"; "share"; "msgs"; "words" ]
  in
  List.iter
    (fun (label, r, m, w) ->
      Table.add_row table
        [
          label;
          Table.cell_float ~decimals:1 r;
          (if t.total_rounds > 0.0 then
             Printf.sprintf "%.1f%%" (100.0 *. r /. t.total_rounds)
           else "-");
          Table.cell_int m;
          Table.cell_int w;
        ])
    (ledger t);
  table

let pp_ledger fmt t =
  Format.fprintf fmt "@[<v>%a@," pp_totals t;
  if t.total_retransmits > 0 || t.total_dropped > 0 || t.overhead_rounds > 0.0
  then Format.fprintf fmt "%a@," pp_fault_summary t;
  Format.fprintf fmt "%s@]" (Cc_util.Table.render (ledger_table t))

(* --- flight recorder / profile / invariant glue ---

   Cc_obs sits below this library, so the recorder, the load profile and the
   invariant monitor define their own inputs; these adapters subscribe them
   to the event bus and translate each event. *)

let attach_recorder t r =
  add_sink t (fun e ->
      Cc_obs.Recorder.add r ~kind:(kind_name e.kind) ~label:e.label
        ~rounds:e.rounds ~round_end:e.total_rounds ~messages:e.messages
        ~words:e.words ~max_load:e.max_load ~sent:e.sent ~recv:e.recv
        ~retransmits:e.total_retransmits ~dropped:e.total_dropped)

let attach_profile t p =
  add_sink t (fun e ->
      Cc_obs.Profile.add p ~label:e.label ~words:e.words ~sent:e.sent
        ~recv:e.recv)

let attach_invariant t inv =
  let seq = ref 0 in
  add_sink t (fun e ->
      let r =
        {
          Cc_obs.Recorder.seq = !seq;
          kind = kind_name e.kind;
          label = e.label;
          round_start = e.total_rounds -. e.rounds;
          round_end = e.total_rounds;
          rounds = e.rounds;
          messages = e.messages;
          words = e.words;
          max_load = e.max_load;
          sent = e.sent;
          recv = e.recv;
          retransmits = e.total_retransmits;
          dropped = e.total_dropped;
        }
      in
      incr seq;
      ignore (Cc_obs.Invariant.observe inv r))

let ledger_violations t inv =
  Cc_obs.Invariant.check_ledger inv ~ledger:(ledger t) ~rounds:t.total_rounds
    ~messages:t.total_messages ~words:t.total_words
