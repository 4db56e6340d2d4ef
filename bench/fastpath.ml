(* The trap-fast-path ablation (`bench/main.exe --emit fastpath`,
   committed as BENCH_trap_fastpath.json): cycle totals and overhead %
   per configuration, with the verdict cache on/off pair inlined so a
   single emission records the before/after ablation.  Every monitored
   run carries a snapshot of its own metrics registry.  The printed
   trap-cache ablation ({!Ablations}) renders the same measurement.  The
   format round-trips through [Report.Json]. *)

module D = Workloads.Drivers
module J = Report.Json

(* One monitored run, with the fresh registry it recorded into: the
   snapshot folded into its record belongs to exactly this run. *)
type run = { m : D.measurement; recorder : Obs.Recorder.t }

(* [pairs] holds, per defense, the run with the verdict cache on and the
   run with it off. *)
type app_runs = { app : D.app; baseline : D.measurement; pairs : (run * run) list }

(** Every app's unprotected baseline, then full BASTION and the Table 7
    [Fs_full] row, each with the verdict cache on and off. *)
let measure () : app_runs list =
  List.map
    (fun (app : D.app) ->
      let baseline = D.run app D.Vanilla in
      let run defense trap_cache =
        let recorder = Obs.Recorder.create ~metrics:true () in
        { recorder; m = D.run ~trap_cache ~recorder app defense }
      in
      let pairs =
        List.map
          (fun defense ->
            let on = run defense true in
            (on, run defense false))
          [ D.Bastion_full; D.Bastion_fs Bastion.Monitor.Fs_full ]
      in
      { app; baseline; pairs })
    [ D.nginx (); D.sqlite (); D.vsftpd () ]

let record ~(app : D.app) ~(baseline : D.measurement) ?trap_cache ?recorder
    (m : D.measurement) : J.t =
  let tracer = m.D.m_process.Kernel.Process.tracer in
  let cache_fields =
    match m.D.m_monitor with
    | None -> []
    | Some monitor ->
      let hits, misses, rate = Bastion.Monitor.cache_stats monitor in
      [
        ("cache_hits", J.Num (float_of_int hits));
        ("cache_misses", J.Num (float_of_int misses));
        ("cache_hit_rate", J.Num rate);
      ]
  in
  let metrics_fields =
    match recorder with
    | None -> []
    | Some r -> [ ("metrics", Obs.Metrics.to_json (Obs.Recorder.metrics r)) ]
  in
  J.Obj
    ([
       ("app", J.Str app.D.app_name);
       ("defense", J.Str (D.defense_name m.D.m_defense));
       ( "trap_cache",
         match trap_cache with None -> J.Null | Some b -> J.Bool b );
       ("metric", J.Num m.D.m_metric);
       ("metric_name", J.Str app.D.metric_name);
       ("cycles", J.Num (float_of_int m.D.m_cycles));
       ( "overhead_pct",
         J.Num
           (D.overhead_pct ~baseline m ~higher_is_better:app.D.higher_is_better)
       );
       ("traps", J.Num (float_of_int m.D.m_traps));
       ("syscalls", J.Num (float_of_int m.D.m_syscalls));
       ("ptrace_calls", J.Num (float_of_int tracer.Kernel.Ptrace.calls_made));
       ("ptrace_words", J.Num (float_of_int tracer.Kernel.Ptrace.words_read));
     ]
    @ cache_fields @ metrics_fields)

let to_json (apps : app_runs list) : J.t =
  let results =
    List.concat_map
      (fun { app; baseline; pairs } ->
        let monitored trap_cache r =
          record ~app ~baseline ~trap_cache ~recorder:r.recorder r.m
        in
        record ~app ~baseline baseline
        :: List.concat_map
             (fun (on, off) -> [ monitored true on; monitored false off ])
             pairs)
      apps
  in
  J.Obj
    [
      ("schema", J.Str "bastion-bench/1");
      ( "note",
        J.Str
          "trap fast path: coalesced ptrace snapshot reads are always on; \
           trap_cache toggles the CT+CF verdict cache (the on/off pair is \
           the ablation record)" );
      ("results", J.List results);
    ]

let document () = to_json (measure ())
