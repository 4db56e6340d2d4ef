(* The static pre-resolution ablation (`bench/main.exe --emit static`,
   committed as BENCH_static_pre_resolution.json): full BASTION per app, trap
   cache on, in three configurations —

     off          no static results at all
     rank-only    pre-resolution on but the taint cheap path disabled
                  (plain/ctx/dead records active, rank-untainted slots
                  still pay the full binding+shadow check)
     full         everything on, untainted slots verified by the
                  single-probe cheap path

   The off-configuration numbers must be byte-identical to the
   corresponding BENCH_trap_fastpath.json records — static results only
   ever REPLACE shadow probes, they never change what a run executes.
   The on-records add the per-mechanism hit counters and the slot
   breakdown (plain / per-context / dead-site) with taint-rank counts;
   a tainted slot is never pre-resolved, which the emitting code
   asserts.  The printed `static` section renders the same
   measurement. *)

module D = Workloads.Drivers
module P = Bastion_analysis.Preresolve
module J = Report.Json

let record ~(app : D.app) ~(baseline : D.measurement) ~config
    ~(pre_resolve : bool) (m : D.measurement) : J.t =
  let preres_fields =
    match m.D.m_monitor with
    | None -> []
    | Some monitor ->
      let ai_tainted, ai_untainted = Bastion.Monitor.ai_rank_stats monitor in
      [
        ( "pre_resolved_hits",
          J.Num (float_of_int (Bastion.Monitor.pre_resolved_hits monitor)) );
        ( "ctx_resolved_hits",
          J.Num (float_of_int (Bastion.Monitor.ctx_resolved_hits monitor)) );
        ("ai_tainted_checks", J.Num (float_of_int ai_tainted));
        ("ai_untainted_checks", J.Num (float_of_int ai_untainted));
      ]
  in
  J.Obj
    ([
       ("app", J.Str app.D.app_name);
       ("defense", J.Str (D.defense_name m.D.m_defense));
       ("config", J.Str config);
       ("pre_resolve", J.Bool pre_resolve);
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
    @ preres_fields)

let enriched (app : D.app) = D.protected_of ~pre_resolve:true app ~fs:false

(* The taint veto, recorded in the artifact (CI asserts it is zero): a
   slot ranked tainted must appear in no pre-resolution table. *)
let tainted_pre_resolved (p : Bastion.Api.protected) : int =
  Hashtbl.fold
    (fun id ranks acc ->
      acc
      + List.length
          (List.filter
             (fun ((pos, tainted) : int * bool) ->
               tainted
               && ((match Hashtbl.find_opt p.Bastion.Api.pre_resolved id with
                   | Some l -> List.mem_assoc pos l
                   | None -> false)
                  ||
                  match Hashtbl.find_opt p.Bastion.Api.pre_resolved_ctx id with
                  | Some l ->
                    List.exists
                      (fun ((q, _, _) : int * int * int64) -> q = pos)
                      l
                  | None -> false))
             ranks))
    p.Bastion.Api.slot_ranks 0

let slots_json (p : Bastion.Api.protected) : J.t =
  let b = P.breakdown p in
  J.Obj
    [
      ("resolved", J.Num (float_of_int (P.resolved_slots p)));
      ("plain", J.Num (float_of_int b.P.bk_plain));
      ("per_context", J.Num (float_of_int b.P.bk_ctx));
      ("dead_site", J.Num (float_of_int b.P.bk_dead));
      ("ranked_tainted", J.Num (float_of_int b.P.bk_tainted));
      ("ranked_untainted", J.Num (float_of_int b.P.bk_untainted));
      ("tainted_pre_resolved", J.Num (float_of_int (tainted_pre_resolved p)));
    ]

type app_runs = {
  app : D.app;
  protected : Bastion.Api.protected;
  baseline : D.measurement;
  off : D.measurement;
  rank_only : D.measurement;
  full : D.measurement;
}

let measure () : app_runs list =
  List.map
    (fun (app : D.app) ->
      let baseline = D.run app D.Vanilla in
      let off = D.run app D.Bastion_full in
      let rank_only =
        D.run ~pre_resolve:true ~taint_cheap_path:false app D.Bastion_full
      in
      let full = D.run ~pre_resolve:true app D.Bastion_full in
      { app; protected = enriched app; baseline; off; rank_only; full })
    [ D.nginx (); D.sqlite (); D.vsftpd () ]

let to_json (apps : app_runs list) : J.t =
  let results =
    List.concat_map
      (fun { app; baseline; off; rank_only; full; _ } ->
        [
          record ~app ~baseline ~config:"off" ~pre_resolve:false off;
          record ~app ~baseline ~config:"rank-only" ~pre_resolve:true rank_only;
          record ~app ~baseline ~config:"full" ~pre_resolve:true full;
        ])
      apps
  in
  let slots =
    J.Obj (List.map (fun a -> (a.app.D.app_name, slots_json a.protected)) apps)
  in
  J.Obj
    [
      ("schema", J.Str "bastion-bench-static/2");
      ( "note",
        J.Str
          "static pre-resolution ablation: full BASTION, trap cache on; \
           'off' has no static results (records match \
           BENCH_trap_fastpath.json), 'rank-only' adds plain/per-context/\
           dead-site pre-resolution with the taint cheap path disabled, \
           'full' also verifies rank-untainted slots through the \
           single-probe cheap path; tainted slots are never pre-resolved" );
      ("pre_resolved_slots", slots);
      ("results", J.List results);
    ]

let document () = to_json (measure ())

(* Printed section (`bench/main.exe static`). *)
let run () =
  print_endline "Static pre-resolution (SCCP + taint ablation)";
  print_endline "---------------------------------------------";
  List.iter
    (fun { app; protected = p; off; full = on; _ } ->
      let b = P.breakdown p in
      let hits, ctx_hits, untainted =
        match on.D.m_monitor with
        | Some m ->
          ( Bastion.Monitor.pre_resolved_hits m,
            Bastion.Monitor.ctx_resolved_hits m,
            snd (Bastion.Monitor.ai_rank_stats m) )
        | None -> (0, 0, 0)
      in
      Printf.printf
        "  %-8s slots=%d (plain=%d ctx=%d dead=%d) ranks t/u=%d/%d  cycles \
         off=%d on=%d saved=%d  hits=%d ctx=%d cheap=%d\n"
        app.D.app_name (P.resolved_slots p) b.P.bk_plain b.P.bk_ctx b.P.bk_dead
        b.P.bk_tainted b.P.bk_untainted off.D.m_cycles on.D.m_cycles
        (off.D.m_cycles - on.D.m_cycles)
        hits ctx_hits untainted)
    (measure ());
  print_newline ()
