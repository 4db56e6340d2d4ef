(* The benchmark driver.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up (several times, each in a fresh process, and
   reports the median), then runs it in a closed loop — each iteration
   starts when the previous one ends — for S seconds, checks every
   session against its known answer, and prints one JSON object as the
   last line of standard output.  With --trace 0 it reports the
   end-to-end metrics; with --trace 1 it alternates untraced and traced
   iterations and reports the per-layer metrics of the traced ones,
   and writes the spans to .perfbench/. *)

let workloads =
  [
    ("nginx-tiered", Nginx_bench.tiered);
    ("nginx-fs-monitor", Nginx_bench.fs_monitor);
    ("attack-replay", Attack_bench.workload);
  ]

(* Set-ups per run; all but the last run in forked children so that
   each one starts cold (no compile-pass or replay caches filled). *)
let setups = 3

let usage () =
  prerr_endline
    "usage: perfbench --workload {nginx-tiered,nginx-fs-monitor,attack-replay} \
     --seed N --seconds S --trace {0,1}";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref Nginx_bench.default_seed and seconds = ref 10
  and trace = ref 0 in
  let rec go = function
    | [] -> ()
    | flag :: v :: rest -> (
      let int_of v = match int_of_string_opt v with Some n -> n | None -> usage () in
      (match flag with
      | "--workload" -> workload := v
      | "--seed" -> seed := int_of v
      | "--seconds" -> seconds := int_of v
      | "--trace" -> trace := int_of v
      | _ -> usage ());
      go rest)
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.assoc_opt !workload workloads with
  | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
    (!workload, w, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let seconds_since t0 = float_of_int (Probe.now_ns () - t0) *. 1e-9

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Words allocated by the whole program: minor + major - promoted. *)
let allocated () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type ready = { wl : Iter.workload; setup_probe : Probe.t }

(* Set-up: model, compile pass, references and the warm-up iteration. *)
let set_up w ~seed =
  let setup_probe = Probe.create ~base:(1 lsl 50) in
  let wl = w ~seed ~probe:(Some setup_probe) in
  { wl; setup_probe }

(* A set-up between two calibration samples, with the process's peak
   RSS at its end. *)
type setup_run = { ref_s : float; rss_mb : float; samples : float list }

let timed_setup w ~seed =
  let c0 = Calib.sample () in
  let t0 = Probe.now_ns () in
  let ready = set_up w ~seed in
  let host_s = seconds_since t0 in
  let rss_mb = peak_rss_mb () in
  let c1 = Calib.sample () in
  (ready, { ref_s = host_s /. Calib.speed [ c0; c1 ]; rss_mb; samples = [ c0; c1 ] })

(* One cold set-up in a child process. *)
let forked_setup w ~seed =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let _, r = timed_setup w ~seed in
        let msg =
          String.concat " " (List.map (Printf.sprintf "%.9f") (r.ref_s :: r.rss_mb :: r.samples))
        in
        ignore (Unix.write_substring wr msg 0 (String.length msg));
        0
      with e ->
        prerr_endline ("set-up failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let text = In_channel.input_all ic in
    close_in ic;
    (match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "a forked set-up failed");
    match List.map float_of_string (String.split_on_char ' ' text) with
    | ref_s :: rss_mb :: samples -> { ref_s; rss_mb; samples }
    | _ -> failwith "a forked set-up reported nothing"

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type sample = {
  traced : bool;
  wall_s : float;  (** host seconds *)
  ref_s : float;  (** reference seconds (see Calib) *)
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  r : Iter.t;
}

(* Each iteration is bracketed by calibration samples; neighbouring
   iterations share the sample between them. *)
let run_loop (wl : Iter.workload) ~seconds ~trace ~recorder ~counts ~calib =
  let t_start = Probe.now_ns () in
  let before = ref (Calib.sample ()) in
  calib := !before :: !calib;
  let samples = ref [] in
  let iter = ref 0 in
  let have kind = List.exists (fun s -> s.traced = kind) !samples in
  while
    seconds_since t_start < float_of_int seconds
    || !samples = []
    || (trace && not (have true && have false))
  do
    incr iter;
    let traced = trace && !iter mod 2 = 0 in
    let probe = if traced then Some recorder else None in
    let counts = if traced then counts else Probe.counts () in
    let g0 = Gc.quick_stat () in
    let a0 = allocated () in
    let t0 = Probe.now_ns () in
    let r = wl.Iter.iterate ~iter:!iter ~probe ~histogram:false ~counts in
    let wall_s = seconds_since t0 in
    let a1 = allocated () in
    let g1 = Gc.quick_stat () in
    let after = Calib.sample () in
    calib := after :: !calib;
    Printf.eprintf "iteration %d%s: %.4f host s, calibration %.5f s -> %.5f s\n%!" !iter
      (if traced then " (traced)" else "") wall_s !before after;
    samples :=
      { traced; wall_s;
        ref_s =
          (match r.ref_s with
          | Some ref_s -> ref_s
          | None -> wall_s /. Calib.speed [ !before; after ]);
        alloc_words = a1 -. a0;
        minor_gcs = g1.minor_collections - g0.minor_collections;
        major_gcs = g1.major_collections - g0.major_collections; r }
      :: !samples;
    before := after
  done;
  List.rev !samples

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let p99 (hists : (int, int) Hashtbl.t list) =
  let all = Hashtbl.create 64 in
  List.iter
    (Hashtbl.iter (fun v c ->
         Hashtbl.replace all v (c + Option.value ~default:0 (Hashtbl.find_opt all v))))
    hists;
  let sorted = List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) all []) in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 sorted in
  (* nearest rank *)
  let rank = max 1 (int_of_float (Float.ceil (0.99 *. float_of_int total))) in
  let rec go seen = function
    | [] -> nan
    | (v, c) :: rest -> if seen + c >= rank then float_of_int v else go (seen + c) rest
  in
  go 0 sorted

(* Host times are reported in reference seconds (see Calib). *)
let end_to_end ~setup_s ~rss_mb (warm : Iter.t) (samples : sample list) ~ok_frac =
  let med f = median (List.map f samples) in
  let rate n s = float_of_int n /. s.ref_s in
  [
    ("setup_s", setup_s, "s");
    ("sim_syscalls_per_s", med (fun s -> rate s.r.syscalls s), "1/s");
    ("sessions_per_s", med (fun s -> rate s.r.sessions s), "1/s");
    ("alloc_mwords_per_iter", med (fun s -> s.alloc_words /. 1e6), "Mwords");
    ("peak_rss_mb", rss_mb, "MB");
    ("modelled_overhead_pct", warm.overhead_pct, "%");
    ("modelled_syscall_cycles.p99", p99 warm.hists, "cycles");
    ("ok_frac", ok_frac, "frac");
  ]

let ratio a b = if b = 0. then 0. else a /. b

let per_layer ~(ready : ready) ~(counts : Probe.counts) ~spans ~calib_s
    (samples : sample list) =
  let lanes = float_of_int ready.wl.lanes in
  let traced = List.filter (fun s -> s.traced) samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let n = float_of_int (List.length traced) in
  let per_iter x = ratio x n in
  let sum selfs name f =
    List.fold_left
      (fun acc ((s : Probe.span), self_ns, self_words) ->
        if s.name = name then acc +. f s self_ns self_words else acc)
      0. selfs
  in
  let selfs = Probe.self_times spans in
  let self_s name = sum selfs name (fun _ ns _ -> float_of_int ns *. 1e-9) in
  let self_words name = sum selfs name (fun _ _ words -> float_of_int words) in
  let dur_s name = sum selfs name (fun s _ _ -> float_of_int s.dur *. 1e-9) in
  let count name = sum selfs name (fun s _ _ -> float_of_int s.count) in
  let cycles name = sum selfs name (fun s _ _ -> float_of_int s.cycles) in
  let machine = self_s "session.run" and kernel = self_s "kernel"
  and monitor = self_s "monitor" and runtime = self_s "runtime"
  and boot = self_s "session.boot" and attacks = self_s "attack.session" in
  let syscalls = count "kernel" and traps = count "monitor"
  and intrinsics = count "runtime" in
  let instrs = float_of_int counts.instrs in
  (* Compile steps run per session on attack-replay and only in set-up
     on the NGINX workloads; report them per iteration or per set-up. *)
  let compile_names =
    [ "compile.protect"; "compile.preresolve"; "compile.flow_extract"; "compile.lint" ]
  in
  let in_loop = List.exists (fun nm -> count nm > 0.) compile_names in
  let compile_selfs, compile_scale =
    if in_loop then (selfs, per_iter)
    else (Probe.self_times ready.setup_probe.spans, Fun.id)
  in
  let compile_sum name f = compile_scale (sum compile_selfs name f) in
  let compile_dur name = compile_sum name (fun s _ _ -> float_of_int s.dur *. 1e-9) in
  let compile_in_loop =
    if in_loop then List.fold_left (fun acc nm -> acc +. dur_s nm) 0. compile_names else 0.
  in
  let replay = dur_s "replay.read" +. dur_s "replay.strict" +. dur_s "replay.diff" in
  (* The mt layer: pool wall against the jobs it ran, on the untraced
     iterations (the serial references are untraced too). *)
  let pooled = List.filter (fun s -> s.r.pool <> None) untraced in
  let mt_med f = if pooled = [] then 0. else median (List.map f pooled) in
  let busy s = List.fold_left ( +. ) 0. s.r.jobs_s in
  let serial = List.fold_left ( +. ) 0. ready.wl.serial_job_s in
  let mt_wall = mt_med (fun s -> s.wall_s) and mt_busy = mt_med busy in
  (* Idle worker time inside traced pool runs: lanes x pool wall minus
     the job sessions it ran. *)
  let mt_idle =
    let pool = dur_s "mt.pool" in
    if pool > 0. then (lanes *. pool) -. dur_s "session" else 0.
  in
  let wall = List.fold_left (fun acc s -> acc +. s.wall_s) 0. traced in
  let budget = wall *. lanes in
  let attributed =
    machine +. kernel +. monitor +. runtime +. boot +. compile_in_loop +. attacks
    +. replay +. mt_idle
  in
  let med_wall l = median (List.map (fun s -> s.wall_s) l) in
  let share x = ratio x budget in
  [
    ("machine.self_s", per_iter machine, "s");
    ("machine.host_share", share machine, "frac");
    ("machine.instrs", per_iter instrs, "count");
    ("machine.ns_per_instr", ratio (machine *. 1e9) instrs, "ns");
    ("machine.alloc_words_per_instr", ratio (self_words "session.run") instrs, "words");
    ("kernel.syscalls", per_iter syscalls, "count");
    ("kernel.self_s", per_iter kernel, "s");
    ("kernel.host_share", share kernel, "frac");
    ("kernel.ns_per_syscall", ratio (kernel *. 1e9) syscalls, "ns");
    ("kernel.alloc_words_per_syscall", ratio (self_words "kernel") syscalls, "words");
    ( "kernel.prefilter_resolved_frac",
      ratio (float_of_int counts.prefilter_resolved) (float_of_int counts.prefilter_eligible),
      "frac" );
    ("monitor.traps", per_iter traps, "count");
    ("monitor.trap_s", per_iter monitor, "s");
    ("monitor.host_share", share monitor, "frac");
    ("monitor.ns_per_trap", ratio (monitor *. 1e9) traps, "ns");
    ("monitor.alloc_words_per_trap", ratio (self_words "monitor") traps, "words");
    ( "monitor.trap_cache_hit_frac",
      ratio (float_of_int counts.trap_cache_hits) (float_of_int counts.trap_cache_lookups),
      "frac" );
    ("monitor.modelled_cycles_per_trap", ratio (cycles "monitor") traps, "cycles");
    ("ptrace.words_per_trap", ratio (float_of_int counts.ptrace_words) traps, "words");
    ("runtime.intrinsics", per_iter intrinsics, "count");
    ("runtime.self_s", per_iter runtime, "s");
    ("runtime.host_share", share runtime, "frac");
    ("runtime.ns_per_intrinsic", ratio (runtime *. 1e9) intrinsics, "ns");
    ("runtime.alloc_words_per_intrinsic", ratio (self_words "runtime") intrinsics, "words");
    ( "shadow.mean_probe_length",
      ratio (float_of_int counts.shadow_probes) (float_of_int counts.shadow_lookups),
      "probes" );
    ("session.boot_s", per_iter boot, "s");
    ("compile.programs", compile_sum "compile.protect" (fun s _ _ -> float_of_int s.count), "count");
    ("compile.protect_s", compile_dur "compile.protect", "s");
    ("compile.preresolve_s", compile_dur "compile.preresolve", "s");
    ("compile.flow_extract_s", compile_dur "compile.flow_extract", "s");
    ("compile.lint_s", compile_dur "compile.lint", "s");
    ("attacks.session_s", ratio (dur_s "attack.session") (count "attack.session"), "s");
    ("attacks.self_s", per_iter attacks, "s");
    ("attacks.prefilter_kills", per_iter (float_of_int counts.prefilter_kills), "count");
    ("attacks.monitor_denials", per_iter (float_of_int counts.monitor_denials), "count");
    ("replay.read_s", per_iter (dur_s "replay.read"), "s");
    ( "replay.ns_per_line",
      ratio (dur_s "replay.read" *. 1e9) (float_of_int counts.replay_lines),
      "ns" );
    ("replay.strict_s", per_iter (dur_s "replay.strict"), "s");
    ("replay.diff_s", per_iter (dur_s "replay.diff"), "s");
    ("replay.traps_judged", per_iter (float_of_int counts.replay_traps), "count");
    ("mt.wall_s", mt_wall, "s");
    ("mt.busy_s", mt_busy, "s");
    ("mt.idle_s", per_iter mt_idle, "s");
    ("mt.parallel_efficiency", ratio mt_busy (mt_wall *. lanes), "frac");
    ("mt.job_inflation", ratio mt_busy serial, "ratio");
    ( "mt.util_spread",
      mt_med (fun s -> Bastion_mt.Monitor_pool.util_spread (Option.get s.r.pool)),
      "ratio" );
    ( "gc.minor_collections",
      per_iter (List.fold_left (fun a s -> a +. float_of_int s.minor_gcs) 0. traced),
      "count" );
    ( "gc.major_collections",
      per_iter (List.fold_left (fun a s -> a +. float_of_int s.major_gcs) 0. traced),
      "count" );
    ("iter.wall_s", per_iter wall, "s");
    ("host.calib_s", calib_s, "s");
    ("unattributed_s", per_iter (budget -. attributed), "s");
    ("trace_overhead_frac", (med_wall traced /. med_wall untraced) -. 1., "frac");
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not a number");
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let () =
  let name, w, seed, seconds, trace = parse_args () in
  try
    let children = List.init (setups - 1) (fun _ -> forked_setup w ~seed) in
    let ready, own = timed_setup w ~seed in
    let runs = own :: children in
    let setup_s = median (List.map (fun (r : setup_run) -> r.ref_s) runs) in
    (* The OCaml 5 heap's peak differs by up to 10% between runs of the
       same input, so peak RSS is also a median over the cold set-ups,
       each read at its end (warm-up iteration included). *)
    let rss_mb = median (List.map (fun r -> r.rss_mb) runs) in
    let calib = ref (List.concat_map (fun r -> r.samples) runs) in
    let recorder = Probe.create ~base:0 in
    let counts = Probe.counts () in
    let samples = run_loop ready.wl ~seconds ~trace ~recorder ~counts ~calib in
    let calib_s = median !calib in
    (* Known answers, and the modelled results of every iteration —
       traced or not — against the traced warm-up's. *)
    let failed = ref (List.length ready.wl.warm.failures) and attempted = ref 0 in
    let report msg = prerr_endline (name ^ ": " ^ msg) in
    List.iter report ready.wl.warm.failures;
    List.iter
      (fun s ->
        attempted := !attempted + s.r.sessions;
        if s.r.modelled <> ready.wl.warm.modelled then begin
          report "modelled results differ from the warm-up iteration";
          failed := !failed + s.r.sessions
        end
        else begin
          List.iter report s.r.failures;
          failed := !failed + List.length s.r.failures
        end)
      samples;
    let failed = min !failed !attempted in
    let ok_frac = float_of_int (!attempted - failed) /. float_of_int !attempted in
    let correct = failed = 0 && ready.wl.warm.failures = [] in
    let metrics =
      if trace then begin
        (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
        Probe.write
          (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" name seed)
          recorder.spans;
        per_layer ~ready ~counts ~spans:recorder.spans ~calib_s samples
      end
      else end_to_end ~setup_s ~rss_mb ready.wl.warm samples ~ok_frac
    in
    print_result ~correct ~attempted:!attempted ~failed metrics
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
