(* Plain-text table rendering for experiment output.

   Every experiment prints its results through this module so that the
   tables in EXPERIMENTS.md and the output of `bench/main.exe` line up. *)

(* The first column is left-aligned, every other right-aligned. *)
let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let render ~headers ~rows () =
  let ncols = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> ncols then
        invalid_arg "Table.render: row width does not match headers")
    rows;
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let render_row row =
    let cells =
      List.mapi (fun i cell -> pad ~left:(i = 0) widths.(i) cell) row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    let dashes = Array.to_list (Array.map (fun w -> String.make w '-') widths) in
    "|-" ^ String.concat "-|-" dashes ^ "-|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print ~headers ~rows () = print_string (render ~headers ~rows ())

let fmt_float ?(digits = 3) x =
  if Float.is_nan x then "nan"
  else if Float.is_integer x && Float.abs x < 1e15 && digits = 0 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" digits x

let fmt_pct ?(digits = 1) x = Printf.sprintf "%.*f%%" digits (100.0 *. x)
