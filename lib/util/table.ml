type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count does not match columns";
  t.rows <- cells :: t.rows

let cell_int = string_of_int

let cell_float ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x

let cell_sci x = Printf.sprintf "%.3e" x

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let buf = Buffer.create 1024 in
  let hline () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let render_row row =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' ');
        Buffer.add_string buf " |")
      row;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  hline ();
  render_row t.columns;
  hline ();
  List.iter render_row rows;
  hline ();
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
