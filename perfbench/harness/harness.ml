(* The benchmark harness.  perfbench/run.py builds it and starts one
   fresh process per workload run:

     harness.exe <topk_cold|serve_hot|ingest_churn> --seed N --seconds S
                 --out FILE [--trace] [--spans FILE] [--tiny]
                 [--work DIR] [--cli EXE] [--digests FILE]
     harness.exe digests      # the topk_cold reference digests, to stdout

   It writes raw samples to --out (format in rec.ml) and, when traced,
   the span file to --spans.  All statistics happen in run.py. *)

let () =
  match Array.to_list Sys.argv with
  | [ _; "digests" ] -> Topk_cold.print_digests ()
  | _ :: workload :: _ ->
    let seed = ref 1 and seconds = ref 10.0 and out = ref "" and spans = ref "" in
    let traced = ref false and tiny = ref false in
    let work = ref "" and cli = ref "" and digests = ref "" in
    let specs =
      [
        ("--seed", Arg.Set_int seed, "N workload seed");
        ("--seconds", Arg.Set_float seconds, "S nominal length of the timed window");
        ("--out", Arg.Set_string out, "FILE raw samples");
        ("--trace", Arg.Set traced, " record spans");
        ("--spans", Arg.Set_string spans, "FILE span output (with --trace)");
        ("--tiny", Arg.Set tiny, " smoke-test sizes");
        ("--work", Arg.Set_string work, "DIR fresh directory for store files");
        ("--cli", Arg.Set_string cli, "EXE the flexpath CLI (serve_hot)");
        ("--digests", Arg.Set_string digests, "FILE checked-in topk_cold digests");
      ]
    in
    Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun _ -> ()) "harness.exe WORKLOAD [options]";
    let out_ch = open_out !out in
    let tr = Rec.trace ~on:!traced in
    let seconds = !seconds and seed = !seed and tiny = !tiny in
    (match workload with
    | "topk_cold" -> Topk_cold.run ~seed ~seconds ~tiny ~out:out_ch ~tr ~digests:!digests
    | "serve_hot" -> Serve_hot.run ~seed ~seconds ~tiny ~out:out_ch ~tr ~work:!work ~cli:!cli
    | "ingest_churn" -> Ingest_churn.run ~seed ~seconds ~tiny ~out:out_ch ~tr ~work:!work
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2);
    close_out out_ch;
    if !traced then Rec.write_spans tr !spans
  | _ ->
    prerr_endline "usage: harness.exe WORKLOAD [options] | harness.exe digests";
    exit 2
