(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation and the committed BENCH_*.json artifacts.  See
   {!Bench.Cli} for the command line. *)

let () = exit (Bench.Cli.main (List.tl (Array.to_list Sys.argv)))
