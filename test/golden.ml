(* A golden file against the lines a test prints now: the first line
   that differs fails the test, with both versions. *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check path actual =
  let rec compare_from line = function
    | e :: expected, a :: actual ->
      if e <> a then Alcotest.failf "line %d:\nexpected %s\nactual   %s" line e a;
      compare_from (line + 1) (expected, actual)
    | [], [] -> ()
    | _ -> Alcotest.failf "line %d: one side ends before the other" line
  in
  compare_from 1 (read_lines path, actual)
