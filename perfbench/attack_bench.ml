(* The attack-replay workload: many short sessions that end in a kill or
   a denial, plus the replay engine.

   Each iteration runs 76 sessions:
   - the 32 catalog attacks under the tiered deployment with
     pre-resolution (compile pass: protect, pre-resolution, flow spec);
   - the same 32 attacks under full BASTION without the pre-filter;
   - strict replay of the six golden traces;
   - diff replay of the six golden traces against the current compile
     pass.

   The compile pass of every attack session runs here, span by span,
   and reaches the runner through its [~bundle] seam; the tiered
   pre-filter is attached in [~on_session], the point where the runner
   would attach it itself. *)

module Runner = Attacks.Runner
module Engine = Bastion_replay.Engine
module Trace = Bastion_replay.Trace

let golden_dir = "test/golden"

let golden =
  [ "nginx-benign"; "sqlite-benign"; "vsftpd-benign"; "nginx-attack"; "sqlite-attack";
    "vsftpd-attack" ]

(* Known answers, seed-independent (the seed only reorders sessions).
   In both deployments the seccomp filter kills the 3 attacks whose
   goal syscall the program never calls (KILL rule, §11.3) and the full
   monitor denies the other 29.  The tiered automaton resolves only
   benign traffic: a flow violation falls through to the monitor, which
   denies it.  (The 22/10 split of BENCH_prefilter.json's attack_tiers
   is the standalone automaton's, which this workload does not run.) *)
let filter_kills = 3
let monitor_denials = 29

let shuffle ~seed (xs : 'a list) : 'a list =
  if seed = Nginx_bench.default_seed then xs
  else begin
    let a = Array.of_list xs in
    let st = Random.State.make [| seed; 0x5eed |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  end

let count_lines path =
  let ic = open_in_bin path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

type deployment = Tiered | Full

let deployment_name = function Tiered -> "tiered" | Full -> "full"

(* Per-iteration tallies. *)
type tally = {
  mutable failures : string list;
  mutable syscalls : int;
  modelled : Buffer.t;
  mutable hists : (int, int) Hashtbl.t list;
}

(* One attack session: compile, deploy, run; returns the outcome. *)
let attack_session probe ~histogram ~counts ~session tally (a : Attacks.Attack.t)
    deployment =
  Probe.span probe ~parent:(-1) ~session "attack.session" (fun sid ->
      let span name f = Probe.span probe ~parent:sid ~session name (fun _ -> f ()) in
      let prog = a.a_victim.v_build () in
      let base =
        span "compile.protect" (fun () ->
            Bastion.Api.protect ~protect_filesystem:a.a_fs_scope prog)
      in
      let bundle, spec =
        match deployment with
        | Full -> (base, None)
        | Tiered ->
          let b = span "compile.preresolve" (fun () -> Bastion_analysis.Preresolve.enrich base) in
          (b, Some (span "compile.flow_extract" (fun () -> Bastion_analysis.Flowgraph.extract b)))
      in
      let live = ref None and hooks = ref None in
      let w0 = Probe.words () and t0 = Probe.now_ns () in
      let run_t0 = ref t0 and run_w0 = ref w0 in
      let on_session (s : Bastion.Api.session) =
        (match spec with
        | Some spec ->
          ignore
            (Bastion_analysis.Flowgraph.attach ~spec ~mode:Kernel.Seccomp.Flow_tiered
               bundle ~monitor:s.monitor ~process:s.process)
        | None -> ());
        live := Some s;
        (match probe with
        | Some r -> ignore (Probe.record r ~parent:sid ~session "session.boot" ~t0 ~w0)
        | None -> ());
        if probe <> None || histogram then
          hooks := Some (Probe.attach ~histogram s.machine s.process);
        run_w0 := Probe.words ();
        run_t0 := Probe.now_ns ()
      in
      let outcome = Runner.run ~bundle ~on_session a Runner.Full_bastion in
      (match (probe, !hooks) with
      | Some r, h ->
        let rid =
          Probe.record r ~parent:sid ~session "session.run" ~t0:!run_t0 ~w0:!run_w0
        in
        Option.iter (Probe.emit probe ~run:rid ~session ~t0:!run_t0) h
      | None, _ -> ());
      (match !hooks with
      | Some { Probe.syscall_cycles = Some h; _ } -> tally.hists <- h :: tally.hists
      | _ -> ());
      let cycles, traps =
        match !live with
        | Some s ->
          tally.syscalls <- tally.syscalls + s.machine.stats.syscalls;
          if probe <> None then
            Probe.count_session counts s.machine s.process (Some s.monitor);
          (s.machine.stats.cycles, s.process.trap_count)
        | None -> (0, 0)
      in
      Printf.bprintf tally.modelled "%s %s %s cycles=%d traps=%d\n" a.a_id
        (deployment_name deployment) (Runner.outcome_name outcome) cycles traps;
      outcome)

type trace_file = { name : string; path : string; lines : int }

let workload ~seed ~probe:setup_probe : Iter.workload =
  let files =
    List.map
      (fun name ->
        let path = Filename.concat golden_dir (name ^ ".jsonl") in
        if not (Sys.file_exists path) then
          failwith (path ^ " not found: run from the root of the repository");
        { name; path; lines = count_lines path })
      golden
  in
  (* Vanilla references at the golden scale, for the benign traces'
     modelled overhead. *)
  let vanilla = Hashtbl.create 4 in
  List.iter
    (fun f ->
      let tr = Trace.read_file f.path in
      match tr.t_header.h_kind with
      | Trace.Run { app; scale; _ } ->
        let cycles =
          Probe.span setup_probe ~parent:(-1) ~session:(-1) "setup.vanilla" (fun _ ->
              match Engine.app_of ~name:app ~scale with
              | Ok a -> (Workloads.Drivers.run a Workloads.Drivers.Vanilla).m_cycles
              | Error e -> failwith e)
        in
        Hashtbl.replace vanilla f.name cycles
      | Trace.Attack _ -> ())
    files;
  let attacks = shuffle ~seed Attacks.Catalog.all in
  let files = shuffle ~seed files in
  let iterate ~iter ~probe ~histogram ~counts =
    let tally = { failures = []; syscalls = 0; modelled = Buffer.create 4096; hists = [] } in
    let k = ref 0 in
    let next () =
      incr k;
      Iter.session_id ~iter !k
    in
    List.iter
      (fun deployment ->
        let kills = ref 0 and denials = ref 0 in
        List.iter
          (fun (a : Attacks.Attack.t) ->
            match attack_session probe ~histogram ~counts ~session:(next ()) tally a deployment with
            | Runner.Blocked (Machine.Seccomp_kill _) -> incr kills
            | Runner.Blocked (Machine.Monitor_kill _) -> incr denials
            | Runner.Blocked _ -> ()
            | (Runner.Succeeded | Runner.Inert) as o ->
              tally.failures <-
                Printf.sprintf "%s not blocked (%s): %s" a.a_id (deployment_name deployment)
                  (Runner.outcome_name o)
                :: tally.failures)
          attacks;
        counts.prefilter_kills <- counts.prefilter_kills + !kills;
        counts.monitor_denials <- counts.monitor_denials + !denials;
        if !kills <> filter_kills || !denials <> monitor_denials then
          tally.failures <-
            Printf.sprintf "%s: %d seccomp kills and %d monitor denials, expected %d and %d"
              (deployment_name deployment) !kills !denials filter_kills monitor_denials
            :: tally.failures)
      [ Tiered; Full ];
    let replayed = ref 0 and vanilla_sum = ref 0 in
    List.iter
      (fun f ->
        let session = next () in
        let span name fn = Probe.span probe ~parent:(-1) ~session name (fun _ -> fn ()) in
        let tr = span "replay.read" (fun () -> Trace.read_file f.path) in
        let r = span "replay.strict" (fun () -> Engine.replay ~strict:true tr) in
        let d = span "replay.diff" (fun () -> Engine.diff_replay tr) in
        if not (Engine.ok r && r.rp_traps_replayed = r.rp_traps_recorded
                && r.rp_cycles_replayed = tr.t_header.h_cycles) then
          tally.failures <- (f.name ^ ": strict replay diverged") :: tally.failures;
        if not (Engine.diff_ok d && d.dr_same_metadata) then
          tally.failures <- (f.name ^ ": diff replay moved") :: tally.failures;
        (match Hashtbl.find_opt vanilla f.name with
        | Some v ->
          replayed := !replayed + d.dr_cycles_replayed;
          vanilla_sum := !vanilla_sum + v
        | None -> ());
        counts.Probe.replay_traps <-
          counts.replay_traps + r.rp_traps_replayed + d.dr_traps_matched
          + d.dr_fresh_unmatched;
        counts.replay_lines <- counts.replay_lines + f.lines;
        Printf.bprintf tally.modelled
          "%s strict cycles=%d traps=%d divergences=%d diff cycles=%d matched=%d \
           flips=%d moves=%d\n"
          f.name r.rp_cycles_replayed r.rp_traps_replayed
          (List.length r.rp_divergences) d.dr_cycles_replayed d.dr_traps_matched
          (List.length d.dr_allow_to_deny + List.length d.dr_deny_to_allow)
          d.dr_tier_moves)
      files;
    {
      Iter.sessions = (2 * List.length attacks) + (2 * List.length files);
      failures = List.rev tally.failures;
      syscalls = tally.syscalls;
      modelled = Buffer.contents tally.modelled;
      overhead_pct =
        100. *. float_of_int (!replayed - !vanilla_sum) /. float_of_int !vanilla_sum;
      hists = tally.hists;
      jobs_s = [];
      ref_s = None;
      pool = None;
    }
  in
  { Iter.lanes = 1; warm = Iter.warm_up iterate; serial_job_s = []; iterate }
