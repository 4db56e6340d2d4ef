(* The command line of the benchmark harness.

   Usage:  dune exec bench/main.exe -- [SECTION ...] [--emit NAME|all ...]
                                       [--check]

   Sections print the paper's evaluation: Figure 3, Tables 3-7, the
   section-9.2 statistics and the ablation benches (default: all).
   --emit NAME writes one committed artifact of {!Registry} at the
   repository root (all: every one of them); --check regenerates every
   artifact in memory and exits 1, naming each committed file
   that differs.  Given alone, either skips the printed sections.  An
   unknown section, artifact or option exits 2 before anything runs. *)

let sections =
  [
    ("figure3", Figure3.run);
    ("table4", Table4.run);
    ("table5", Table5.run);
    ("table6", Table6.run);
    ("table7", Table7.run);
    ("stats", Stats9.run);
    ("ablations", Ablations.run);
    ("static", Static_preres.run);
    ("prefilter", Prefilter.run);
    ("throughput", Throughput.run);
    ("fleet", Fleet_bench.run);
  ]

let usage =
  Printf.sprintf
    "usage: main.exe [SECTION ...] [--emit NAME|all ...] [--check]\n\
     sections: %s table3 all\n\
     artifacts: %s\n"
    (String.concat " " (List.map fst sections))
    (String.concat " " (List.map (fun (e : Registry.emitter) -> e.name) Registry.all))

type plan = { sections : string list; emit : string list; check : bool }

let parse args : (plan, string) result =
  let rec go plan = function
    | [] -> Ok plan
    | "--check" :: rest -> go { plan with check = true } rest
    | "--emit" :: "all" :: rest ->
      go { plan with emit = List.map (fun (e : Registry.emitter) -> e.name) Registry.all } rest
    | "--emit" :: name :: rest when Registry.find name <> None ->
      go { plan with emit = name :: plan.emit } rest
    | [ "--emit" ] -> Error "--emit requires an artifact name or all"
    | "--emit" :: name :: _ -> Error ("unknown artifact: " ^ name)
    | arg :: _ when String.starts_with ~prefix:"-" arg -> Error ("unknown option: " ^ arg)
    | "all" :: rest -> go { plan with sections = List.map fst sections } rest
    (* table3 is printed together with figure3. *)
    | "table3" :: rest -> go { plan with sections = "figure3" :: plan.sections } rest
    | name :: rest when List.mem_assoc name sections ->
      go { plan with sections = name :: plan.sections } rest
    | name :: _ -> Error ("unknown section: " ^ name)
  in
  match go { sections = []; emit = []; check = false } args with
  | Ok { sections = []; emit = []; check = false } ->
    Ok { sections = List.map fst sections; emit = []; check = false }
  | result -> result

(** Run the harness on [args] (without the program name) and return the
    exit code. *)
let main args =
  match parse args with
  | Error msg ->
    prerr_endline msg;
    prerr_string usage;
    2
  | Ok plan ->
    let requested = List.filter (fun (name, _) -> List.mem name plan.sections) sections in
    if requested <> [] then begin
      print_endline "BASTION reproduction benchmark harness";
      print_endline "======================================";
      Printf.printf "sections: %s\n\n" (String.concat ", " (List.map fst requested));
      List.iter (fun (_, run) -> run ()) requested
    end;
    List.iter
      (fun (e : Registry.emitter) -> if List.mem e.name plan.emit then Registry.emit e)
      Registry.all;
    if not plan.check then 0
    else
      match Registry.check ~dir:"." with
      | [] ->
        print_endline "every artifact regenerates byte-identically";
        0
      | stale ->
        List.iter
          (fun (e : Registry.emitter) ->
            Printf.eprintf "%s differs from its regeneration (--emit %s)\n" e.path e.name)
          stale;
        1
