type segment = { span_id : int; name : string; start_s : float; stop_s : float }

type row = {
  phase : string;
  self_s : float;
  rounds : float;
  share : float;
}

type t = {
  total_s : float;
  covered_s : float;
  gap_s : float;
  chain : segment list;
  rows : row list;
}

(* One completed span with its pre-computed self-rounds. *)
type node = { sp : Trace.span; self_rounds : float }

let completed sp =
  (not (Float.is_nan sp.Trace.stop_ts)) && sp.Trace.stop_ts >= sp.Trace.start_ts

let flatten trace =
  let rec go acc sp =
    let acc =
      if completed sp then
        let child_rounds =
          List.fold_left
            (fun a (c : Trace.span) -> a +. c.Trace.net_rounds)
            0.0 sp.Trace.children
        in
        { sp; self_rounds = Float.max 0.0 (sp.Trace.net_rounds -. child_rounds) }
        :: acc
      else acc
    in
    List.fold_left go acc sp.Trace.children
  in
  List.fold_left go [] (Trace.roots trace)

let compute trace =
  match flatten trace with
  | [] -> None
  | nodes ->
      let t_start =
        List.fold_left
          (fun a n -> Float.min a n.sp.Trace.start_ts)
          Float.infinity nodes
      in
      let t_end =
        List.fold_left
          (fun a n -> Float.max a n.sp.Trace.stop_ts)
          Float.neg_infinity nodes
      in
      let total_s = t_end -. t_start in
      (* Backward sweep: at cursor [c], the chain step is the active span
         (start < c <= stop) whose start is latest — the innermost work the
         system was waiting on. The segment extends backward only until a
         {e later-started} span's end (below which that span wins the same
         selection) or the chosen span's own start, whichever comes last —
         so an enclosing phase is charged only the slices where none of its
         children were running. With no active span the interval back to the
         nearest earlier span end is a gap (nothing was running). *)
      let chain = ref [] in
      let cursor = ref t_end in
      let gap = ref 0.0 in
      let deadline = (2 * List.length nodes) + 8 in
      let steps = ref 0 in
      while !cursor > t_start && !steps < deadline do
        incr steps;
        let c = !cursor in
        let active =
          List.fold_left
            (fun best n ->
              if n.sp.Trace.start_ts < c && n.sp.Trace.stop_ts >= c then
                match best with
                | None -> Some n
                | Some b ->
                    if
                      n.sp.Trace.start_ts > b.sp.Trace.start_ts
                      || (n.sp.Trace.start_ts = b.sp.Trace.start_ts
                         && n.sp.Trace.depth > b.sp.Trace.depth)
                    then Some n
                    else best
              else best)
            None nodes
        in
        match active with
        | Some n ->
            let lo =
              List.fold_left
                (fun a m ->
                  if
                    m.sp.Trace.stop_ts < c
                    && (m.sp.Trace.start_ts > n.sp.Trace.start_ts
                       || (m.sp.Trace.start_ts = n.sp.Trace.start_ts
                          && m.sp.Trace.depth > n.sp.Trace.depth))
                  then Float.max a m.sp.Trace.stop_ts
                  else a)
                n.sp.Trace.start_ts nodes
            in
            chain :=
              {
                span_id = n.sp.Trace.id;
                name = n.sp.Trace.name;
                start_s = lo -. t_start;
                stop_s = c -. t_start;
              }
              :: !chain;
            cursor := lo
        | None ->
            (* nearest span end strictly before the cursor, or done *)
            let prev =
              List.fold_left
                (fun a n ->
                  if n.sp.Trace.stop_ts < c then
                    Float.max a n.sp.Trace.stop_ts
                  else a)
                Float.neg_infinity nodes
            in
            if prev <= t_start || prev = Float.neg_infinity then begin
              gap := !gap +. (c -. t_start);
              cursor := t_start
            end
            else begin
              gap := !gap +. (c -. prev);
              cursor := prev
            end
      done;
      let chain = !chain in
      let covered_s =
        List.fold_left (fun a s -> a +. (s.stop_s -. s.start_s)) 0.0 chain
      in
      (* Attribution rows: chain time by phase; a span's self-rounds are
         charged once, on its first chain segment. *)
      let by_id : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let tbl : (string, row ref) Hashtbl.t = Hashtbl.create 32 in
      let order = ref [] in
      List.iter
        (fun s ->
          let key = s.name in
          let rounds =
            if Hashtbl.mem by_id s.span_id then 0.0
            else begin
              Hashtbl.replace by_id s.span_id ();
              match
                List.find_opt (fun n -> n.sp.Trace.id = s.span_id) nodes
              with
              | Some n -> n.self_rounds
              | None -> 0.0
            end
          in
          match Hashtbl.find_opt tbl key with
          | Some r ->
              r :=
                {
                  !r with
                  self_s = !r.self_s +. (s.stop_s -. s.start_s);
                  rounds = !r.rounds +. rounds;
                }
          | None ->
              Hashtbl.replace tbl key
                (ref
                   {
                     phase = s.name;
                     self_s = s.stop_s -. s.start_s;
                     rounds;
                     share = 0.0;
                   });
              order := key :: !order)
        chain;
      let rows =
        List.rev_map (fun key -> !(Hashtbl.find tbl key)) !order
        |> List.map (fun r ->
               {
                 r with
                 share = (if total_s > 0.0 then r.self_s /. total_s else 0.0);
               })
        |> List.sort (fun a b -> compare b.self_s a.self_s)
      in
      Some { total_s; covered_s; gap_s = total_s -. covered_s; chain; rows }

let share rows ~phase =
  match List.find_opt (fun r -> r.phase = phase) rows with
  | Some r -> r.share
  | None -> 0.0
