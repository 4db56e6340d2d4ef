(* The tiered trap-resolution ablation (`bench/main.exe --emit
   prefilter`, committed as BENCH_prefilter.json): full BASTION per app with
   the syscall-flow pre-filter off, standalone (the SFIP baseline: the
   automaton is the only defense) and tiered (automaton in front of the
   unchanged full monitor).  The off-configuration numbers must be
   byte-identical to the trap-cache-on records of
   BENCH_trap_fastpath.json — the pre-filter is deployed strictly on
   top.  The headline is the tiered row: the majority of traps resolve
   at seccomp cost, with a strict total-cycle win over the trap-cache
   fast path alone.  The attack section records which tier of the
   tiered deployment catches each catalog attack.  The printed
   `prefilter` section renders the same measurement. *)

module D = Workloads.Drivers
module J = Report.Json

let mode_name = function
  | None -> "off"
  | Some m -> Kernel.Seccomp.flow_mode_name m

let record ~(app : D.app) ~(baseline : D.measurement) ~mode (m : D.measurement)
    : J.t =
  let prefilter_fields =
    match (mode, m.D.m_monitor) with
    | None, _ | _, None -> []
    | Some _, Some monitor -> (
      match Bastion.Monitor.prefilter monitor with
      | None -> []
      | Some fa ->
        let resolved, fallthroughs, kills = Bastion.Monitor.prefilter_stats monitor in
        let eligible = resolved + fallthroughs in
        [
          ("prefilter_resolved", J.Num (float_of_int resolved));
          ("prefilter_fallthroughs", J.Num (float_of_int fallthroughs));
          ("prefilter_kills", J.Num (float_of_int kills));
          ( "prefilter_resolved_pct",
            J.Num
              (if eligible = 0 then 0.
               else 100. *. float_of_int resolved /. float_of_int eligible) );
          ("automaton_nodes", J.Num (float_of_int (Kernel.Seccomp.flow_node_count fa)));
          ("automaton_edges", J.Num (float_of_int (Kernel.Seccomp.flow_edge_count fa)));
        ])
  in
  J.Obj
    ([
       ("app", J.Str app.D.app_name);
       ("defense", J.Str (D.defense_name m.D.m_defense));
       ("prefilter", J.Str (mode_name mode));
       ("metric", J.Num m.D.m_metric);
       ("metric_name", J.Str app.D.metric_name);
       ("cycles", J.Num (float_of_int m.D.m_cycles));
       ( "overhead_pct",
         J.Num
           (D.overhead_pct ~baseline m ~higher_is_better:app.D.higher_is_better)
       );
       ("traps", J.Num (float_of_int m.D.m_traps));
       ("syscalls", J.Num (float_of_int m.D.m_syscalls));
     ]
    @ prefilter_fields)

let modes = [ None; Some Kernel.Seccomp.Flow_standalone; Some Kernel.Seccomp.Flow_tiered ]

type app_runs = {
  app : D.app;
  baseline : D.measurement;
  runs : (Kernel.Seccomp.flow_mode option * D.measurement) list;
}

type t = { apps : app_runs list; attacks : Attacks.Runner.row list }

let measure () : t =
  let apps =
    List.map
      (fun (app : D.app) ->
        let baseline = D.run app D.Vanilla in
        let runs =
          List.map (fun mode -> (mode, D.run ?prefilter:mode app D.Bastion_full)) modes
        in
        { app; baseline; runs })
      [ D.nginx (); D.sqlite (); D.vsftpd () ]
  in
  { apps; attacks = Attacks.Runner.evaluate_all () }

let tier_count rows tier =
  List.length (List.filter (fun r -> Attacks.Runner.catching_tier r = tier) rows)

let attack_tiers rows =
  let per_attack =
    List.map
      (fun (r : Attacks.Runner.row) ->
        ( r.r_attack.Attacks.Attack.a_id,
          J.Str (Attacks.Runner.tier_name (Attacks.Runner.catching_tier r)) ))
      rows
  in
  J.Obj
    [
      ("prefilter", J.Num (float_of_int (tier_count rows Attacks.Runner.Tier_prefilter)));
      ("full", J.Num (float_of_int (tier_count rows Attacks.Runner.Tier_full)));
      ("uncaught", J.Num (float_of_int (tier_count rows Attacks.Runner.Tier_uncaught)));
      ("per_attack", J.Obj per_attack);
    ]

let to_json ({ apps; attacks } : t) : J.t =
  let results =
    List.concat_map
      (fun { app; baseline; runs } ->
        List.map (fun (mode, m) -> record ~app ~baseline ~mode m) runs)
      apps
  in
  J.Obj
    [
      ("schema", J.Str "bastion-bench-prefilter/1");
      ( "note",
        J.Str
          "tiered trap-resolution ablation: full BASTION, trap cache on; \
           prefilter deploys the seccomp-stage syscall-flow automaton \
           standalone (SFIP baseline) or tiered in front of the unchanged \
           monitor (the off-records match the trap_cache:true records of \
           BENCH_trap_fastpath.json)" );
      ("results", J.List results);
      ("attack_tiers", attack_tiers attacks);
    ]

let document () = to_json (measure ())

(* Printed section (`bench/main.exe prefilter`). *)
let run () =
  print_endline "Tiered trap resolution (syscall-flow pre-filter ablation)";
  print_endline "---------------------------------------------------------";
  let { apps; attacks } = measure () in
  List.iter
    (fun { app; runs; _ } ->
      let off = List.assoc None runs in
      let tiered = List.assoc (Some Kernel.Seccomp.Flow_tiered) runs in
      let alone = List.assoc (Some Kernel.Seccomp.Flow_standalone) runs in
      let resolved, fallthroughs, _ =
        match tiered.D.m_monitor with
        | Some m -> Bastion.Monitor.prefilter_stats m
        | None -> (0, 0, 0)
      in
      Printf.printf
        "  %-8s full=%d cycles  tiered=%d (resolved %d/%d traps at seccomp \
         cost, saved %d)  prefilter-only=%d\n"
        app.D.app_name off.D.m_cycles tiered.D.m_cycles resolved
        (resolved + fallthroughs)
        (off.D.m_cycles - tiered.D.m_cycles)
        alone.D.m_cycles)
    apps;
  Printf.printf "  attacks caught: prefilter=%d full=%d uncaught=%d\n"
    (tier_count attacks Attacks.Runner.Tier_prefilter)
    (tier_count attacks Attacks.Runner.Tier_full)
    (tier_count attacks Attacks.Runner.Tier_uncaught);
  print_newline ()
