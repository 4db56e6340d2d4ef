(* Multi-tracee monitor throughput (`bench/main.exe throughput`,
   `--emit parallel`, committed as BENCH_parallel_monitor.json).

   N identical NGINX tracees run across a {!Bastion_mt.Monitor_pool} of
   1/2/4/8 worker domains, each tracee a full session driven wholly on
   its owning shard.  The headline is the *modelled* makespan traps/sec:
   modelled cycles are the repo's performance currency, and in the
   sharded deployment every shard owns a core, so the makespan is the
   heaviest shard's cycle sum.  The artifact records nothing that
   depends on the host (wall clock, core count, how full a queue got
   before its worker drained it), so it regenerates byte for byte; host
   time belongs to `perfbench` (`mt.wall_s`).

   Every shard count must reproduce the serial reference byte for byte
   (per-tracee cycles, traps, syscalls, metric); the `matches_serial`
   field records that check so the artifact tests can assert it. *)

module D = Workloads.Drivers
module J = Report.Json
module Pool = Bastion_mt.Monitor_pool
module Q = Bastion_mt.Trap_queue

let shard_counts = [ 1; 2; 4; 8 ]
let default_tracees = 8

(* The smoke configuration: same pipeline, a few hundred traps. *)
let smoke_params =
  { Workloads.Nginx_model.default with connections = 4; requests_per_conn = 20 }

let cps = Workloads.Drivers_config.cycles_per_second

let traps_per_sec ~traps ~cycles =
  float_of_int traps /. (float_of_int cycles /. cps)

(* The per-tracee fingerprint the sharded runs must reproduce. *)
let fingerprint (m : D.measurement) =
  (m.D.m_cycles, m.D.m_traps, m.D.m_syscalls, m.D.m_metric)

let shard_detail (sh : Pool.shard_stats) : J.t =
  J.Obj
    [
      ("shard", J.Num (float_of_int sh.Pool.sh_shard));
      ("tracees", J.Num (float_of_int sh.Pool.sh_tracees));
      ("items", J.Num (float_of_int sh.Pool.sh_items));
      ("queue_pushed", J.Num (float_of_int sh.Pool.sh_queue.Q.q_pushed));
      ("queue_popped", J.Num (float_of_int sh.Pool.sh_queue.Q.q_popped));
    ]

let matches_serial (serial : D.measurement array) (m : D.multi) =
  Array.for_all2 (fun a b -> fingerprint a = fingerprint b) serial m.D.mm_tracees

let speedup (m : D.multi) =
  float_of_int m.D.mm_serial_cycles /. float_of_int m.D.mm_makespan_cycles

type t = {
  smoke : bool;
  app : D.app;
  serial : D.measurement array;  (* a plain loop of [D.run], no pool *)
  runs : (int * D.multi) list;  (* per shard count *)
}

let measure ?(smoke = false) () : t =
  let app = if smoke then D.nginx ~params:smoke_params () else D.nginx () in
  let tracees = default_tracees in
  let serial = Array.init tracees (fun _ -> D.run app D.Bastion_full) in
  let runs =
    List.map
      (fun shards -> (shards, D.run_multi ~shards ~tracees app D.Bastion_full))
      (if smoke then [ 1; 2 ] else shard_counts)
  in
  { smoke; app; serial; runs }

let record ~serial (shards, (m : D.multi)) : J.t =
  let total_traps = D.sum_traps m in
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("tracees", J.Num (float_of_int (Array.length m.D.mm_tracees)));
      ("total_traps", J.Num (float_of_int total_traps));
      ("serial_cycles", J.Num (float_of_int m.D.mm_serial_cycles));
      ("makespan_cycles", J.Num (float_of_int m.D.mm_makespan_cycles));
      ("modelled_speedup", J.Num (speedup m));
      ( "modelled_traps_per_sec",
        J.Num (traps_per_sec ~traps:total_traps ~cycles:m.D.mm_makespan_cycles)
      );
      ("matches_serial", J.Bool (matches_serial serial m));
      ( "per_tracee_cycles",
        J.List
          (Array.to_list
             (Array.map
                (fun (t : D.measurement) -> J.Num (float_of_int t.D.m_cycles))
                m.D.mm_tracees)) );
      ("shard_detail", J.List (Array.to_list (Array.map shard_detail m.D.mm_pool.Pool.p_shards)));
    ]

let to_json { smoke; serial; runs; _ } : J.t =
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 serial in
  let serial_cycles = sum (fun m -> m.D.m_cycles) in
  let serial_traps = sum (fun m -> m.D.m_traps) in
  J.Obj
    [
      ("schema", J.Str "bastion-bench-parallel/2");
      ( "note",
        J.Str
          "sharded multi-tracee monitor throughput: N identical NGINX \
           tracees over a Monitor_pool of worker domains; \
           modelled_traps_per_sec divides total traps by the makespan \
           (heaviest shard's cycle sum at 3 GHz modelled clock); every \
           shard count must match the serial reference per-tracee \
           (matches_serial)" );
      ("app", J.Str "NGINX");
      ("smoke", J.Bool smoke);
      ("tracees", J.Num (float_of_int (Array.length serial)));
      ( "serial",
        J.Obj
          [
            ("cycles", J.Num (float_of_int serial_cycles));
            ("traps", J.Num (float_of_int serial_traps));
            ( "modelled_traps_per_sec",
              J.Num (traps_per_sec ~traps:serial_traps ~cycles:serial_cycles) );
          ] );
      ("results", J.List (List.map (record ~serial) runs));
    ]

let document ?smoke () = to_json (measure ?smoke ())

(* Printed section (`bench/main.exe throughput`): the committed
   measurement, then a scheduler ablation only printed here. *)
let run () =
  print_endline "Sharded multi-tracee monitor throughput";
  print_endline "---------------------------------------";
  let { app; serial; runs; _ } = measure () in
  let tracees = Array.length serial in
  Printf.printf "%d NGINX tracees, full BASTION, modelled 3 GHz clock\n\n" tracees;
  Printf.printf "  %-8s %-16s %-16s %-10s %s\n" "shards" "makespan cycles"
    "traps/sec" "speedup" "matches serial";
  List.iter
    (fun (shards, (m : D.multi)) ->
      Printf.printf "  %-8d %-16d %-16.0f %-10.2f %b\n" shards
        m.D.mm_makespan_cycles
        (traps_per_sec ~traps:(D.sum_traps m) ~cycles:m.D.mm_makespan_cycles)
        (speedup m) (matches_serial serial m))
    runs;
  print_newline ();
  (* Scheduler ablation at a fixed shard count: identical tracees are
     the balanced best case for static hashing, so this is the floor of
     what stealing can buy — the open-loop fleet bench (heterogeneous
     rates and services) is where the gap opens. *)
  let shards = 4 in
  Printf.printf
    "Scheduler ablation (%d shards): modelled makespan per placement policy\n\n"
    shards;
  Printf.printf "  %-14s %-16s %-10s %-8s %-12s %s\n" "scheduler"
    "makespan cycles" "speedup" "steals" "migrations" "matches serial";
  List.iter
    (fun policy ->
      let m = D.run_multi ~scheduler:policy ~shards ~tracees app D.Bastion_full in
      Printf.printf "  %-14s %-16d %-10.2f %-8d %-12d %b\n"
        (Pool.policy_name policy) m.D.mm_makespan_cycles (speedup m)
        m.D.mm_plan.Pool.jp_steals m.D.mm_plan.Pool.jp_migrations
        (matches_serial serial m))
    Pool.all_policies;
  print_newline ()
