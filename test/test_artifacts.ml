(* The committed bench artifacts and the registry that emits them.

   One checker per artifact holds the paper-level claims each file
   records (cycle wins, serial equivalence, the taint veto, the tiered
   headline, the scheduler knees).  It runs on the committed file and,
   for the emitters with a smoke size, on a smoke document generated in
   this process, so a change that breaks an emitter fails here without
   a full-size regeneration.  Byte identity at the committed size is
   `make bench-check` ({!Bench.Registry.check}). *)

module J = Report.Json
module R = Bench.Registry

let emitter name =
  match R.find name with
  | Some e -> e
  | None -> Alcotest.failf "no %s emitter in the registry" name

let committed name =
  let path = Filename.concat ".." (emitter name).R.path in
  if not (Sys.file_exists path) then
    Alcotest.failf "%s missing (run bench/main.exe --emit %s)" path name;
  J.of_file path

(* Each smoke document is generated once per process and shared by the
   determinism test and the checker. *)
let smoke_bytes =
  List.filter_map
    (fun (e : R.emitter) ->
      Option.map (fun smoke -> (e.name, lazy (R.render (smoke ())))) e.smoke)
    R.all

let smoke name = J.of_string (Lazy.force (List.assoc name smoke_bytes))

(* --- field access ------------------------------------------------------ *)

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

let num name j =
  match field name j with
  | J.Num f -> f
  | _ -> Alcotest.failf "field %s is not a number" name

let str name j =
  match field name j with
  | J.Str s -> s
  | _ -> Alcotest.failf "field %s is not a string" name

let bool name j =
  match field name j with
  | J.Bool b -> b
  | _ -> Alcotest.failf "field %s is not a boolean" name

let list name j =
  match field name j with
  | J.List l -> l
  | _ -> Alcotest.failf "field %s is not a list" name

let check_schema tag doc = Alcotest.(check string) "schema" tag (str "schema" doc)

(* The trap-cache-on cycles of full BASTION per app: the reference the
   static and prefilter off-rows are glued to. *)
let cache_on_cycles fastpath =
  List.filter_map
    (fun r ->
      if str "defense" r = "CET+CT+CF+AI" && field "trap_cache" r = J.Bool true
      then Some (str "app" r, num "cycles" r)
      else None)
    (list "results" fastpath)

let cache_on fastpath app =
  match List.assoc_opt app (cache_on_cycles fastpath) with
  | Some c -> c
  | None -> Alcotest.failf "%s: no trap-cache-on record" app

(* --- BENCH_trap_fastpath.json ----------------------------------------- *)

(* The trap-cache ablation pairs, each with a strict cycle win. *)
let check_fastpath doc =
  check_schema "bastion-bench/1" doc;
  let results = list "results" doc in
  Alcotest.(check bool) "has results" true (results <> []);
  let keyed tc =
    List.filter_map
      (fun r ->
        match field "trap_cache" r with
        | J.Bool b when b = tc -> Some ((str "app" r, str "defense" r), num "cycles" r)
        | _ -> None)
      results
  in
  let on = keyed true and off = keyed false in
  Alcotest.(check int) "ablation pairs complete" (List.length off) (List.length on);
  Alcotest.(check bool) "at least 6 ablation pairs" true (List.length on >= 6);
  List.iter
    (fun (((app, d) as k), c_on) ->
      match List.assoc_opt k off with
      | None -> Alcotest.fail "unpaired cache-on record"
      | Some c_off ->
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: cache-on cycles < cache-off" app d)
          true (c_on < c_off))
    on

(* --- BENCH_static_pre_resolution.json --------------------------------- *)

(* SCCP + taint prove strictly more slots static than plain constant
   propagation did, never pre-resolve a tainted slot, keep the off-rows
   glued to the trap-cache-on records, and make the full configuration
   cheaper than rank-only, strictly wherever untainted slots exist. *)
let check_static ~fastpath doc =
  check_schema "bastion-bench-static/2" doc;
  let results = list "results" doc in
  let row app config =
    match
      List.find_opt (fun r -> str "app" r = app && str "config" r = config) results
    with
    | Some r -> r
    | None -> Alcotest.failf "%s: no %s row" app config
  in
  let configs c = List.filter (fun r -> str "config" r = c) results in
  let full = configs "full" in
  Alcotest.(check int) "ablation triples complete" (List.length (configs "off"))
    (List.length full);
  Alcotest.(check int) "rank-only rows present" (List.length (configs "off"))
    (List.length (configs "rank-only"));
  Alcotest.(check bool) "all three apps present" true (List.length full >= 3);
  List.iter
    (fun r ->
      let app = str "app" r in
      let c_full = num "cycles" r in
      Alcotest.(check bool) (app ^ ": full cycles < baseline") true
        (c_full < num "cycles" (row app "off"));
      Alcotest.(check bool) (app ^ ": full cycles <= rank-only") true
        (c_full <= num "cycles" (row app "rank-only")))
    full;
  let slots =
    match field "pre_resolved_slots" doc with
    | J.Obj fields -> fields
    | _ -> Alcotest.fail "pre_resolved_slots is not an object"
  in
  Alcotest.(check int) "slot breakdown covers the three apps" 3 (List.length slots);
  List.iter
    (fun (app, s) ->
      Alcotest.(check (float 0.0)) (app ^ ": tainted slots pre-resolved") 0.0
        (num "tainted_pre_resolved" s);
      Alcotest.(check (float 0.0)) (app ^ ": breakdown sums") (num "resolved" s)
        (num "plain" s +. num "per_context" s +. num "dead_site" s))
    slots;
  (* Plain constant propagation resolved 3 / 1 / 1 slots. *)
  List.iter
    (fun (app, floor) ->
      let s = field app (field "pre_resolved_slots" doc) in
      if not (num "resolved" s > floor) then
        Alcotest.failf "%s: %g resolved slots do not beat the plain-constprop %g"
          app (num "resolved" s) floor;
      let off = row app "off" and rank = row app "rank-only" and full = row app "full" in
      Alcotest.(check (float 0.0)) (app ^ ": off-row glued to trap-cache-on")
        (cache_on fastpath app) (num "cycles" off);
      Alcotest.(check bool) (app ^ ": full beats off") true
        (num "cycles" full < num "cycles" off);
      if num "ranked_untainted" s > 0.0 then
        Alcotest.(check bool) (app ^ ": cheap path beats rank-only") true
          (num "cycles" full < num "cycles" rank);
      Alcotest.(check (float 0.0)) (app ^ ": rank-only and full agree on ranked checks")
        (num "ai_untainted_checks" rank) (num "ai_untainted_checks" full))
    [ ("NGINX", 3.0); ("SQLite", 1.0); ("vsftpd", 1.0) ]

(* --- BENCH_prefilter.json --------------------------------------------- *)

(* The tiered headline: the automaton resolves the majority of benign
   traps on every workload, tiered strictly beats the trap-cache-on
   records, and every catalog attack is still caught. *)
let check_prefilter ~fastpath doc =
  check_schema "bastion-bench-prefilter/1" doc;
  let results = list "results" doc in
  let row app mode =
    match
      List.find_opt (fun r -> str "app" r = app && str "prefilter" r = mode) results
    with
    | Some r -> r
    | None -> Alcotest.failf "%s: no %s row" app mode
  in
  let apps = List.sort_uniq compare (List.map (str "app") results) in
  Alcotest.(check bool) "has results" true (apps <> []);
  List.iter
    (fun app ->
      let off = row app "off" and tiered = row app "tiered" in
      if not (num "prefilter_resolved" tiered *. 2.0 > num "traps" off) then
        Alcotest.failf "%s: tier resolved %g of %g traps, not a majority" app
          (num "prefilter_resolved" tiered) (num "traps" off);
      if not (num "cycles" tiered < cache_on fastpath app) then
        Alcotest.failf "%s: tiered %g cycles does not beat trap-cache-on %g" app
          (num "cycles" tiered) (cache_on fastpath app))
    apps;
  Alcotest.(check (float 0.0)) "attacks left uncaught" 0.0
    (num "uncaught" (field "attack_tiers" doc))

(* --- BENCH_parallel_monitor.json -------------------------------------- *)

(* Every shard count reproduces the serial reference; at the committed
   size four shards buy at least a 2x modelled speedup. *)
let check_parallel ~smoke doc =
  check_schema "bastion-bench-parallel/2" doc;
  Alcotest.(check bool) "smoke flag" smoke (bool "smoke" doc);
  let results = list "results" doc in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "shards=%g matches serial" (num "shards" r))
        true (bool "matches_serial" r))
    results;
  let speedup_at shards =
    match List.find_opt (fun r -> num "shards" r = shards) results with
    | Some r -> num "modelled_speedup" r
    | None -> Alcotest.failf "no shards=%g row" shards
  in
  Alcotest.(check (float 1e-9)) "1 shard is exactly serial" 1.0 (speedup_at 1.0);
  if not smoke then begin
    Alcotest.(check bool) "at least shard counts 1..4 present" true
      (List.length results >= 3);
    let s = speedup_at 4.0 in
    Alcotest.(check bool)
      (Printf.sprintf "4 shards >= 2x modelled speedup (got %.2f)" s)
      true (s >= 2.0)
  end

(* --- BENCH_fleet.json -------------------------------------------------- *)

(* The telemetry-plane invariants per policy arm (strictly increasing
   offered loads, serial-reference equality, ordered tail percentiles,
   a detected knee) and the scheduler headline: both balancing arms knee
   at a strictly higher load fraction than static pinning, their
   utilisation spread is lower at every shared sub-saturation point,
   stealing fires, and static never steals. *)
let check_fleet ~smoke doc =
  check_schema "bastion-fleet/2" doc;
  let config = field "config" doc in
  if not smoke then
    Alcotest.(check bool) "fleet of at least 64 tracees" true (num "tracees" config >= 64.0);
  Alcotest.(check bool) "at least 4 shards" true (num "shards" config >= 4.0);
  Alcotest.(check bool) "positive capacity" true (num "capacity_traps_per_sec" doc > 0.0);
  Alcotest.(check bool) "static bottleneck below the ideal aggregate" true
    (num "capacity_bottleneck_traps_per_sec" doc < num "capacity_traps_per_sec" doc);
  let policies = list "policies" doc in
  Alcotest.(check (list string)) "policy arms" [ "least-loaded"; "static"; "steal" ]
    (List.sort compare (List.map (str "policy") policies));
  let arm name = List.find (fun p -> str "policy" p = name) policies in
  List.iter
    (fun p ->
      let name = str "policy" p in
      let rs = list "results" p in
      Alcotest.(check bool) (name ^ ": at least 5 load points") true (List.length rs >= 5);
      let loads = List.map (num "offered_traps_per_sec") rs in
      Alcotest.(check bool) (name ^ ": offered loads strictly increase") true
        (List.for_all2 (fun a b -> a < b) loads (List.tl loads @ [ infinity ]));
      List.iter
        (fun r ->
          let at = num "load_fraction" r in
          if not (bool "matches_serial" r) then
            Alcotest.failf "%s: load %.2f diverged from the serial reference" name at;
          List.iter
            (fun h ->
              let s = field h r in
              if not (num "p50" s <= num "p99" s
                      && num "p99" s <= num "p999" s
                      && num "p999" s <= num "max" s)
              then Alcotest.failf "%s: load %.2f: %s percentiles out of order" name at h)
            [ "queue_wait"; "e2e"; "service" ];
          Alcotest.(check bool) (name ^ ": spread is at least level") true
            (num "util_spread" r >= 1.0))
        rs;
      match field "knee" p with
      | J.Obj _ as k ->
        ignore (str "reason" k);
        let i = num "index" k in
        Alcotest.(check bool) (name ^ ": knee index inside the sweep") true
          (i >= 0.0 && int_of_float i < List.length rs)
      | _ ->
        Alcotest.failf "%s: swept to %.2fx capacity without a knee" name
          (num "load_fraction" (List.nth rs (List.length rs - 1))))
    policies;
  let static = arm "static" in
  let knee_load p = num "load_fraction" (field "knee" p) in
  List.iter
    (fun name ->
      let p = arm name in
      if not (knee_load p > knee_load static) then
        Alcotest.failf "%s knee %.2fx did not move past the static knee %.2fx" name
          (knee_load p) (knee_load static);
      List.iter2
        (fun rs rb ->
          if num "util_max" rb < 1.0 && not (num "util_spread" rb < num "util_spread" rs)
          then
            Alcotest.failf "%s: spread %.3f not below static %.3f at %.2fx" name
              (num "util_spread" rb) (num "util_spread" rs) (num "load_fraction" rb))
        (list "results" static) (list "results" p))
    [ "least-loaded"; "steal" ];
  Alcotest.(check bool) "the steal arm stole" true
    (List.exists (fun r -> num "steals" r > 0.0) (list "results" (arm "steal")));
  Alcotest.(check bool) "the static arm never steals" true
    (List.for_all (fun r -> num "steals" r = 0.0) (list "results" static))

(* --- the registry ------------------------------------------------------ *)

(* Run twice in one process, a smoke emitter gives the same bytes: a
   field that reads the host (a clock, the core count, queue timing)
   fails this. *)
let test_smoke_deterministic () =
  Alcotest.(check (list string)) "emitters with a smoke size" [ "parallel"; "fleet" ]
    (List.map fst smoke_bytes);
  List.iter
    (fun (e : R.emitter) ->
      Option.iter
        (fun smoke ->
          Alcotest.(check string) (e.name ^ " smoke bytes")
            (Lazy.force (List.assoc e.name smoke_bytes))
            (R.render (smoke ())))
        e.smoke)
    R.all

let read path = In_channel.with_open_bin path In_channel.input_all

let write path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

(* The --check comparison over a copy of the committed artifacts: clean
   when untouched, and naming exactly the one file with a flipped byte
   (or a deleted file). *)
let test_check_names_changed () =
  let dir = Filename.temp_file "bench-artifacts" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let copy (e : R.emitter) = Filename.concat dir e.path in
  let rendered = List.map (fun (e : R.emitter) -> (e, read (Filename.concat ".." e.path))) R.all in
  List.iter (fun (e, bytes) -> write (copy e) bytes) rendered;
  let names () = List.map (fun (e : R.emitter) -> e.name) (R.differing ~dir rendered) in
  Alcotest.(check (list string)) "untouched copy" [] (names ());
  List.iter
    (fun ((e : R.emitter), bytes) ->
      let flipped = Bytes.of_string bytes in
      let i = Bytes.length flipped / 2 in
      Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
      write (copy e) (Bytes.to_string flipped);
      Alcotest.(check (list string)) ("one byte of " ^ e.path) [ e.name ] (names ());
      Sys.remove (copy e);
      Alcotest.(check (list string)) ("missing " ^ e.path) [ e.name ] (names ());
      write (copy e) bytes)
    rendered;
  List.iter (fun (e, _) -> Sys.remove (copy e)) rendered;
  Sys.rmdir dir

(* Argument errors exit 2 before any section or emitter runs. *)
let test_bad_arguments () =
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) 2 (Bench.Cli.main args))
    [
      [ "--emit"; "nope" ];
      [ "--emit" ];
      [ "--parallel-smoke" ];
      [ "--json"; "out.json" ];
      [ "table6"; "--fleet-smoke" ];
      [ "nosuchsection" ];
    ]

let suites =
  [
    ( "artifacts",
      [
        Alcotest.test_case "fastpath: committed file" `Quick (fun () ->
            check_fastpath (committed "fastpath"));
        Alcotest.test_case "static: committed file" `Quick (fun () ->
            check_static ~fastpath:(committed "fastpath") (committed "static"));
        Alcotest.test_case "prefilter: committed file" `Quick (fun () ->
            check_prefilter ~fastpath:(committed "fastpath") (committed "prefilter"));
        Alcotest.test_case "parallel: committed file" `Quick (fun () ->
            check_parallel ~smoke:false (committed "parallel"));
        Alcotest.test_case "parallel: smoke document" `Quick (fun () ->
            check_parallel ~smoke:true (smoke "parallel"));
        Alcotest.test_case "fleet: committed file" `Quick (fun () ->
            check_fleet ~smoke:false (committed "fleet"));
        Alcotest.test_case "fleet: smoke document" `Quick (fun () ->
            check_fleet ~smoke:true (smoke "fleet"));
        Alcotest.test_case "smoke emitters deterministic" `Quick test_smoke_deterministic;
        Alcotest.test_case "check names the changed file" `Quick test_check_names_changed;
        Alcotest.test_case "bad arguments exit 2" `Quick test_bad_arguments;
      ] );
  ]
