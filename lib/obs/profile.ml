type row = { label : string; sent : int array; recv : int array }

type t = {
  machines : int;
  lanes : (string, row) Hashtbl.t;
  total_sent : int array;
  total_recv : int array;
  mutable total_words : int;
}

let create ~machines =
  if machines < 1 then invalid_arg "Profile.create: need at least one machine";
  {
    machines;
    lanes = Hashtbl.create 16;
    total_sent = Array.make machines 0;
    total_recv = Array.make machines 0;
    total_words = 0;
  }

let add t { Recorder.label; words; sent; recv; _ } =
  match (sent, recv) with
  | [||], [||] -> () (* an analytic charge routes no traffic *)
  | _ ->
      if Array.length sent <> t.machines || Array.length recv <> t.machines
      then
        invalid_arg
          (Printf.sprintf "Profile.add: %S arrays must have length %d" label
             t.machines);
      let row =
        match Hashtbl.find_opt t.lanes label with
        | Some row -> row
        | None ->
            let row =
              {
                label;
                sent = Array.make t.machines 0;
                recv = Array.make t.machines 0;
              }
            in
            Hashtbl.add t.lanes label row;
            row
      in
      for i = 0 to t.machines - 1 do
        row.sent.(i) <- row.sent.(i) + sent.(i);
        row.recv.(i) <- row.recv.(i) + recv.(i);
        t.total_sent.(i) <- t.total_sent.(i) + sent.(i);
        t.total_recv.(i) <- t.total_recv.(i) + recv.(i)
      done;
      t.total_words <- t.total_words + words

let peak_load row =
  let m = ref 0 in
  Array.iteri (fun i s -> m := max !m (max s row.recv.(i))) row.sent;
  !m

(* Descending by peak load, ties by label: independent of Hashtbl order. *)
let rows t =
  Hashtbl.fold (fun _ row acc -> row :: acc) t.lanes []
  |> List.sort (fun a b ->
         match compare (peak_load b) (peak_load a) with
         | 0 -> compare a.label b.label
         | c -> c)

let machine_load t i = max t.total_sent.(i) t.total_recv.(i)

let max_load t =
  let m = ref 0 in
  for i = 0 to t.machines - 1 do
    m := max !m (machine_load t i)
  done;
  !m

let mean_load t = float_of_int t.total_words /. float_of_int t.machines

let imbalance t =
  let mean = mean_load t in
  if mean <= 0.0 then 1.0 else float_of_int (max_load t) /. mean

let quantile t q =
  let loads =
    Array.init t.machines (fun i -> float_of_int (machine_load t i))
  in
  Array.sort compare loads;
  let q = Float.min 1.0 (Float.max 0.0 q) in
  let pos = q *. float_of_int (t.machines - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  let frac = pos -. float_of_int lo in
  (loads.(lo) *. (1.0 -. frac)) +. (loads.(hi) *. frac)

let hot ?(k = 3) t =
  let all = List.init t.machines (fun i -> (i, machine_load t i)) in
  let sorted =
    List.sort
      (fun (i, a) (j, b) -> match compare b a with 0 -> compare i j | c -> c)
      all
  in
  List.filteri (fun rank _ -> rank < k) sorted
  |> List.filter (fun (_, load) -> load > 0)

let summary_line t =
  Printf.sprintf
    "load: max %d  mean %.1f  p50 %.1f  p95 %.1f  imbalance %.2f%s"
    (max_load t) (mean_load t) (quantile t 0.5) (quantile t 0.95)
    (imbalance t)
    (match hot ~k:1 t with
    | (m, load) :: _ -> Printf.sprintf "  hot machine %d (%d words)" m load
    | [] -> "")

(* --- heatmap ----------------------------------------------------------- *)

let ramp = " .:-=+*#%@"

let intensity ~scale v =
  if v <= 0 then ramp.[0]
  else if scale <= 0 then ramp.[0]
  else
    let levels = String.length ramp - 1 in
    (* Any nonzero load is at least level 1 so traffic never disappears. *)
    let lvl = max 1 (v * levels / scale) in
    ramp.[min levels lvl]

let render ?(max_width = 64) t =
  let max_width = max 1 max_width in
  let bucket = (t.machines + max_width - 1) / max_width in
  let cols = (t.machines + bucket - 1) / bucket in
  let cell_of arr c =
    let m = ref 0 in
    for i = c * bucket to min (t.machines - 1) ((c + 1) * bucket - 1) do
      m := max !m arr.(i)
    done;
    !m
  in
  let row_cells row =
    Array.init cols (fun c -> max (cell_of row.sent c) (cell_of row.recv c))
  in
  let total_cells =
    Array.init cols (fun c -> max (cell_of t.total_sent c) (cell_of t.total_recv c))
  in
  let scale = Array.fold_left max 0 total_cells in
  let rows = rows t in
  let scale =
    List.fold_left
      (fun acc row -> Array.fold_left max acc (row_cells row))
      scale rows
  in
  let label_w =
    List.fold_left (fun acc r -> max acc (String.length r.label)) 5 rows
  in
  let label_w = min 32 label_w in
  let clip s = if String.length s > label_w then String.sub s 0 label_w else s in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "machine x label congestion heatmap — words, max(sent, recv)\n\
        %d machines%s; ramp %S scaled to max cell %d\n"
       t.machines
       (if bucket > 1 then Printf.sprintf " (%d per column)" bucket else "")
       ramp scale);
  let line label cells peak =
    Buffer.add_string buf (Printf.sprintf "%-*s |" label_w (clip label));
    Array.iter (fun v -> Buffer.add_char buf (intensity ~scale v)) cells;
    Buffer.add_string buf (Printf.sprintf "| %8d\n" peak)
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s |%s| %8s\n" label_w "label" (String.make cols '-')
       "peak");
  List.iter (fun row -> line row.label (row_cells row) (peak_load row)) rows;
  line "TOTAL" total_cells (max_load t);
  (match hot ~k:1 t with
  | (m, _) :: _ ->
      let col = m / bucket in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %s^ machine %d\n" label_w "" (String.make col ' ')
           m)
  | [] -> ());
  Buffer.add_string buf (summary_line t);
  Buffer.add_char buf '\n';
  Buffer.contents buf
