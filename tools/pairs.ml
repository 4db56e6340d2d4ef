(* Summarise an alternating-pairs benchmark run.

     pairs BENCHMARK.json BASE.jsonl HEAD.jsonl

   Each .jsonl file holds the last line of one untraced perfbench run
   per line, pair i of BASE matching pair i of HEAD.  For every
   end-to-end metric BENCHMARK.json declares, prints each side's median
   and quartiles, the number of pairs HEAD won in the metric's better
   direction, and the per-pair values.  Then prints in how many pairs
   the modelled metrics are exactly equal, naming the seeds where they
   differ (pair i runs seed i).  Exits 1 if a run missed a known
   answer. *)

module J = Report.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("pairs: " ^ s); exit 2) fmt

let lines path =
  let ic = open_in path in
  let rec go n acc =
    match input_line ic with
    | l -> (
      match J.of_string l with
      | run -> go (n + 1) (run :: acc)
      | exception J.Parse_error msg -> fail "%s line %d is not JSON (%s): %S" path n msg l)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go 1 []

(* (name, higher-is-better) for each end-to-end metric. *)
let end_to_end path =
  let doc = J.of_file path in
  match Option.bind (J.member "end_to_end" doc) J.to_list with
  | None -> fail "%s has no end_to_end list" path
  | Some ms ->
    List.map
      (fun m ->
        match (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "better" m) J.to_str) with
        | Some name, Some better -> (name, better = "higher")
        | _ -> fail "malformed end_to_end entry in %s" path)
      ms

let value run name =
  Option.bind (J.member "metrics" run) (J.member name)
  |> Fun.flip Option.bind (J.member "value")
  |> Fun.flip Option.bind J.to_float

let correct run = Option.bind (J.member "correct" run) J.to_bool = Some true

(* Linear interpolation between closest ranks. *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let summary xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Printf.sprintf "%.6g [%.6g-%.6g]" (quantile a 0.5) (quantile a 0.25) (quantile a 0.75)

(* The modelled clock is deterministic, so a change that leaves it alone
   reports exactly these values in every pair. *)
let modelled = [ "modelled_overhead_pct"; "modelled_syscall_cycles.p99" ]

let modelled_report base head =
  let differ =
    List.concat
      (List.mapi
         (fun i (b, h) ->
           if List.for_all (fun name -> value b name = value h name) modelled then []
           else [ string_of_int (i + 1) ])
         (List.combine base head))
  in
  Printf.printf "modelled metrics equal in %d/%d pairs%s\n"
    (List.length base - List.length differ)
    (List.length base)
    (if differ = [] then "" else "; they differ at seed " ^ String.concat ", " differ)

let () =
  match Sys.argv with
  | [| _; bench; base; head |] ->
    let base = lines base and head = lines head in
    if base = [] || List.length base <> List.length head then
      fail "need the same non-zero number of runs on each side";
    let n = List.length base in
    Printf.printf "%d pairs; median [q1-q3], base -> head; wins are head's\n" n;
    List.iter
      (fun (name, higher) ->
        let pairs =
          List.filter_map
            (fun (b, h) ->
              match (value b name, value h name) with
              | Some b, Some h -> Some (b, h)
              | _ -> None)
            (List.combine base head)
        in
        if pairs <> [] then begin
          let wins =
            List.length (List.filter (fun (b, h) -> if higher then h > b else h < b) pairs)
          in
          let ties = List.length (List.filter (fun (b, h) -> b = h) pairs) in
          Printf.printf "%-28s %s -> %s  wins %d/%d (%d equal)\n" name
            (summary (List.map fst pairs)) (summary (List.map snd pairs)) wins
            (List.length pairs) ties;
          Printf.printf "  per pair: %s\n"
            (String.concat "; "
               (List.map (fun (b, h) -> Printf.sprintf "%.6g -> %.6g" b h) pairs))
        end)
      (end_to_end bench);
    modelled_report base head;
    let bad = List.length (List.filter (fun r -> not (correct r)) (base @ head)) in
    if bad > 0 then begin
      Printf.printf "%d run(s) missed a known answer\n" bad;
      exit 1
    end
  | _ -> fail "usage: pairs BENCHMARK.json BASE.jsonl HEAD.jsonl"
