(* The two NGINX workloads.

   nginx-tiered      one tracee, full BASTION behind the tiered
                     syscall-flow pre-filter, trap cache on: the shipped
                     deployment.  Host time is the interpreter.
   nginx-fs-monitor  four tracees on a static two-shard monitor pool
                     under Bastion+fs full context checking (Table 7,
                     row 3), pre-filter off: every syscall traps to the
                     full monitor.

   Both run the same program, so their difference isolates the monitor
   and the pool.  The benchmark runs the compile pass itself (so each
   step is timed once, in set-up) and deploys its output through the
   drivers' [~bundle] seam; the default-seed known answers below prove
   that this is the same deployment the committed artifacts measured. *)

module D = Workloads.Drivers
module Nginx = Workloads.Nginx_model
module Pool = Bastion_mt.Monitor_pool

let default_seed = 0

(* Known answers at the default seed, from the committed artifacts:
   the tiered NGINX row of BENCH_prefilter.json and the trap-cache-on
   Bastion+fs full row of BENCH_trap_fastpath.json. *)
let tiered_row = (125_159_962, 41)
let fs_full_row = (1_541_045_279, 116_377)

(** NGINX parameters of [tracee] under [seed]: the shipped defaults at
    the default seed.  Other seeds move the connection count by up to
    one, re-split the same total of requests over the connections (give
    or take one request each) and move the page size by up to 1%: the
    input shape changes while the work stays within about 1% of the
    default, so the figures of different seeds stay comparable. *)
let params ~seed ~tracee : Nginx.params =
  let d = Nginx.default in
  if seed = default_seed then d
  else
    let st = Random.State.make [| seed; tracee |] in
    let jitter k = Random.State.int st ((2 * k) + 1) - k in
    let connections = d.connections + jitter 1 in
    let requests = d.connections * d.requests_per_conn in
    { d with
      connections;
      requests_per_conn =
        ((requests + (connections / 2)) / connections) + jitter 1;
      page_words = d.page_words + jitter 8 }

type tracee = {
  app : D.app;
  bundle : Bastion.Api.protected;
  spec : Defenses.Flow_prefilter.spec option;  (** tiered only *)
  vanilla : D.measurement;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Set-up of one tracee: model build, compile pass, lint gate, flow spec
   and the vanilla reference run, each a span of [probe]. *)
let prepare_tracee probe ~fs ~tiered (p : Nginx.params) : tracee =
  let span name f = Probe.span probe ~parent:(-1) ~session:(-1) name (fun _ -> f ()) in
  let prog = span "setup.model" (fun () -> Nginx.build p) in
  let app = { (D.nginx ~params:p ()) with prog = Lazy.from_val prog; prog_fs = Lazy.from_val prog } in
  let bundle =
    span "compile.protect" (fun () ->
        Bastion.Api.protect ~protect_filesystem:fs ~validate:false prog)
  in
  (match
     span "compile.lint" (fun () ->
         Bastion_analysis.Lint.errors (Bastion_analysis.Lint.check bundle))
   with
  | [] -> ()
  | d :: _ -> fail "lint gate: %s" (Format.asprintf "%a" Bastion_analysis.Lint.pp_diag d));
  let spec =
    if tiered then
      Some (span "compile.flow_extract" (fun () -> Bastion_analysis.Flowgraph.extract bundle))
    else None
  in
  let vanilla = span "setup.vanilla" (fun () -> D.run app D.Vanilla) in
  { app; bundle; spec; vanilla }

(* ------------------------------------------------------------------ *)
(* One session                                                         *)

type session = {
  s_result : (D.measurement, string) result;
  s_hooks : Probe.hooks option;
  s_probe : Probe.t option;
  s_counts : Probe.counts;
  s_host_s : float;
}

(* Boot, deploy and run one tracee, on whatever domain calls it; all
   recording goes to the session's own recorder and counters. *)
let run_session ~defense ~histogram ~traced ~base ~session (t : tracee) : session =
  let probe = if traced then Some (Probe.create ~base) else None in
  let counts = Probe.counts () in
  let t0 = Probe.now_ns () in
  let result, hooks =
    Probe.span probe ~parent:(-1) ~session "session" (fun sid ->
        let pr =
          Probe.span probe ~parent:sid ~session "session.boot" (fun _ ->
              let pr = D.prepare ~bundle:t.bundle t.app defense in
              (match (t.spec, pr.pr_monitor) with
              | Some spec, Some monitor ->
                ignore
                  (Bastion_analysis.Flowgraph.attach ~spec
                     ~mode:Kernel.Seccomp.Flow_tiered t.bundle ~monitor
                     ~process:pr.pr_process)
              | _ -> ());
              pr)
        in
        let hooks =
          if traced || histogram then
            Some (Probe.attach ~histogram pr.pr_machine pr.pr_process)
          else None
        in
        let run_t0 = Probe.now_ns () in
        let result =
          Probe.span probe ~parent:sid ~session "session.run" (fun rid ->
              let r =
                match D.execute pr with
                | m -> Ok m
                | exception D.Benign_run_died msg -> Error msg
              in
              Option.iter (Probe.emit probe ~run:rid ~session ~t0:run_t0) hooks;
              r)
        in
        if traced then
          Probe.count_session counts pr.pr_machine pr.pr_process pr.pr_monitor;
        (result, hooks))
  in
  { s_result = result; s_hooks = hooks; s_probe = probe; s_counts = counts;
    s_host_s = float_of_int (Probe.now_ns () - t0) *. 1e-9 }

(* Known answers of one benign session; [serial] is the same tracee's
   run alone, when it has one. *)
let check ~expect ~serial (t : tracee) (r : (D.measurement, string) result) :
    string option =
  match r with
  | Error msg -> Some ("benign run died: " ^ msg)
  | Ok m ->
    let denials =
      match m.m_monitor with Some mon -> Bastion.Monitor.denials mon | None -> []
    in
    if denials <> [] then Some (Printf.sprintf "%d denials on a benign run" (List.length denials))
    else if m.m_syscalls <> t.vanilla.m_syscalls then
      Some (Printf.sprintf "syscalls %d, vanilla %d" m.m_syscalls t.vanilla.m_syscalls)
    else if m.m_process.io_words_out <> t.vanilla.m_process.io_words_out then
      Some
        (Printf.sprintf "served %d words, vanilla %d" m.m_process.io_words_out
           t.vanilla.m_process.io_words_out)
    else
      match expect with
      | Some (cycles, traps) when m.m_cycles <> cycles || m.m_traps <> traps ->
        Some
          (Printf.sprintf "cycles %d traps %d, committed row %d / %d" m.m_cycles
             m.m_traps cycles traps)
      | _ -> (
        match serial with
        | Some (s : D.measurement)
          when s.m_cycles <> m.m_cycles || s.m_traps <> m.m_traps
               || s.m_syscalls <> m.m_syscalls || s.m_metric <> m.m_metric
               || s.m_process.io_words_out <> m.m_process.io_words_out ->
          Some
            (Printf.sprintf "differs from its serial reference: cycles %d vs %d"
               m.m_cycles s.m_cycles)
        | _ -> None)

let modelled_text (r : (D.measurement, string) result) =
  match r with
  | Error msg -> "died:" ^ msg
  | Ok m ->
    let denials =
      match m.m_monitor with Some mon -> List.length (Bastion.Monitor.denials mon) | None -> 0
    in
    Printf.sprintf "cycles=%d traps=%d syscalls=%d denials=%d words=%d" m.m_cycles
      m.m_traps m.m_syscalls denials m.m_process.io_words_out

let overhead (t : tracee) (m : D.measurement) =
  D.overhead_pct ~baseline:t.vanilla m ~higher_is_better:t.app.higher_is_better

(* Fold finished sessions into one iteration report. *)
let summarise ?ref_s ~into_probe ~counts ~expect ~pool ~jobs_s
    (sessions : (tracee * D.measurement option * session) list) =
  let failures = ref [] and modelled = Buffer.create 256 and syscalls = ref 0 in
  let overheads = ref [] and hists = ref [] in
  List.iter
    (fun (t, serial, s) ->
      (match check ~expect ~serial t s.s_result with
      | Some f -> failures := f :: !failures
      | None -> ());
      Buffer.add_string modelled (modelled_text s.s_result);
      Buffer.add_char modelled '\n';
      (match s.s_result with
      | Ok m ->
        syscalls := !syscalls + m.m_syscalls;
        overheads := overhead t m :: !overheads
      | Error _ -> ());
      (match s.s_hooks with
      | Some { Probe.syscall_cycles = Some h; _ } -> hists := h :: !hists
      | _ -> ());
      (match (into_probe, s.s_probe) with
      | Some into, Some r -> Probe.merge ~into r
      | _ -> ());
      Probe.add_counts ~into:counts s.s_counts)
    sessions;
  let n = List.length !overheads in
  {
    Iter.sessions = List.length sessions;
    failures = List.rev !failures;
    syscalls = !syscalls;
    modelled = Buffer.contents modelled;
    overhead_pct =
      (if n = 0 then nan else List.fold_left ( +. ) 0. !overheads /. float_of_int n);
    hists = !hists;
    jobs_s;
    ref_s;
    pool;
  }

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)

let tiered ~seed ~probe : Iter.workload =
  let t = prepare_tracee probe ~fs:false ~tiered:true (params ~seed ~tracee:0) in
  let expect = if seed = default_seed then Some tiered_row else None in
  let iterate ~iter ~probe ~histogram ~counts =
    let session = Iter.session_id ~iter 0 in
    let s =
      run_session ~defense:D.Bastion_full ~histogram ~traced:(probe <> None)
        ~base:(session lsl 20) ~session t
    in
    summarise ~into_probe:probe ~counts ~expect ~pool:None ~jobs_s:[] [ (t, None, s) ]
  in
  { Iter.lanes = 1; warm = Iter.warm_up iterate; serial_job_s = []; iterate }

let fs_tracees = 4
let fs_shards = 2
let fs_defense = D.Bastion_fs Bastion.Monitor.Fs_full

let fs_monitor ~seed ~probe : Iter.workload =
  (* Tracees with equal parameters share one set-up (at the default
     seed all four do). *)
  let by_params = Hashtbl.create 4 in
  let tracees =
    Array.init fs_tracees (fun i ->
        let p = params ~seed ~tracee:i in
        match Hashtbl.find_opt by_params p with
        | Some t -> t
        | None ->
          let t = prepare_tracee probe ~fs:true ~tiered:false p in
          Hashtbl.replace by_params p t;
          t)
  in
  let expect = if seed = default_seed then Some fs_full_row else None in
  (* The warm-up iteration runs the four tracees one after another on
     this domain: these runs are also the serial references every pool
     iteration must reproduce, and their host times are the base of
     mt.job_inflation. *)
  let serial =
    Array.init fs_tracees (fun i ->
        Probe.span probe ~parent:(-1) ~session:(-1) "setup.serial" (fun _ ->
            run_session ~defense:fs_defense ~histogram:true ~traced:false ~base:0
              ~session:(Iter.session_id ~iter:0 i) tracees.(i)))
  in
  let references =
    Array.mapi
      (fun i s ->
        match s.s_result with
        | Ok m -> m
        | Error msg -> fail "serial reference of tracee %d died: %s" i msg)
      serial
  in
  let warm =
    summarise ~into_probe:None ~counts:(Probe.counts ()) ~expect ~pool:None ~jobs_s:[]
      (List.init fs_tracees (fun i -> (tracees.(i), None, serial.(i))))
  in
  let config = Pool.config ~shards:fs_shards () in
  let iterate ~iter ~probe ~histogram ~counts =
    let traced = probe <> None in
    (* Each job also samples the calibration kernel on its own domain
       before and after its session.  A lane's sessions are rescaled
       by their own samples, so a slow spell on one lane counts where
       it happened; the pool's own time (spawn, join, the samples) by
       the mean of all samples. *)
    let job i () =
      let session = Iter.session_id ~iter i in
      let c0 = Calib.sample () in
      let s =
        run_session ~defense:fs_defense ~histogram ~traced ~base:(session lsl 20) ~session
          tracees.(i)
      in
      (s, [ c0; Calib.sample () ])
    in
    let t0 = Probe.now_ns () in
    let jobs, pool =
      Probe.span probe ~parent:(-1) ~session:(Iter.session_id ~iter 999) "mt.pool"
        (fun _ -> Pool.run_tracees ~config (Array.init fs_tracees job))
    in
    let pool_s = float_of_int (Probe.now_ns () - t0) *. 1e-9 in
    let host = Array.make fs_shards 0. and refd = Array.make fs_shards 0. in
    Array.iteri
      (fun i (s, samples) ->
        let lane = Pool.shard_of_tracee ~shards:fs_shards i in
        host.(lane) <- host.(lane) +. s.s_host_s;
        refd.(lane) <- refd.(lane) +. (s.s_host_s /. Calib.speed samples))
      jobs;
    let critical = ref 0 in
    Array.iteri (fun lane r -> if r > refd.(!critical) then critical := lane) refd;
    let speed = Calib.speed (List.concat_map snd (Array.to_list jobs)) in
    let sessions = Array.map fst jobs in
    summarise
      ~ref_s:(refd.(!critical) +. ((pool_s -. host.(!critical)) /. speed))
      ~into_probe:probe ~counts ~expect ~pool:(Some pool)
      ~jobs_s:(Array.to_list (Array.map (fun s -> s.s_host_s) sessions))
      (List.init fs_tracees (fun i -> (tracees.(i), Some references.(i), sessions.(i))))
  in
  { Iter.lanes = fs_shards; warm;
    serial_job_s = Array.to_list (Array.map (fun s -> s.s_host_s) serial); iterate }
