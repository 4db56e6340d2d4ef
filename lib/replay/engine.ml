(* The replay engine: offline re-verification of a recorded trap
   stream against the real monitor.

   The monitor's verdict is a pure function of the deployed metadata
   and the per-trap snapshot, and the machine model is deterministic.
   Replay therefore re-executes the recorded configuration from
   scratch — same program, same monitor knobs — but swaps the
   monitor's trap source so that every register file and stack
   snapshot is *injected from the trace* (charging identical modelled
   costs via [Ptrace.inject_*]) instead of read from the tracee.  The
   monitor re-judges each trap on its real verification path; a
   wrapped tracer hook aligns the fresh event with a recorded one,
   logs the pair and then returns the *recorded* verdict, so control
   flow follows the recorded run.  One re-execution answers both
   questions: strict [replay] ("is this stream unchanged?") and
   [diff_replay] ("what moved?") are two pure reports over the same
   log. *)

module Drivers = Workloads.Drivers
module Runner = Attacks.Runner
module Event = Obs.Event
module Ptrace = Kernel.Ptrace

(* ------------------------------------------------------------------ *)
(* Name registries.  The header stores short stable keys; recording
   and replay resolve them through the same tables, so both sides
   always build the same run. *)

let defense_table =
  [ ("vanilla", Drivers.Vanilla); ("cfi", Drivers.Llvm_cfi); ("cet", Drivers.Cet_only);
    ("ct", Drivers.Bastion_ct); ("ct-cf", Drivers.Bastion_ct_cf); ("full", Drivers.Bastion_full);
    ("fs-off", Drivers.Bastion_fs Bastion.Monitor.Fs_off);
    ("fs-hook", Drivers.Bastion_fs Bastion.Monitor.Fs_hook_only);
    ("fs-fetch", Drivers.Bastion_fs Bastion.Monitor.Fs_fetch_only);
    ("fs-full", Drivers.Bastion_fs Bastion.Monitor.Fs_full) ]

let defense_key (d : Drivers.defense) : string =
  fst (List.find (fun (_, d') -> d' = d) defense_table)

let defense_of_key key =
  Option.map snd (List.find_opt (fun (k, _) -> String.equal k key) defense_table)

let config_table =
  [ ("none", Runner.Undefended); ("ct", Runner.Only_ct); ("cf", Runner.Only_cf);
    ("ai", Runner.Only_ai); ("full", Runner.Full_bastion) ]

let config_key (c : Runner.config) : string =
  fst (List.find (fun (_, c') -> c' = c) config_table)

let config_of_key key =
  Option.map snd (List.find_opt (fun (k, _) -> String.equal k key) config_table)

let scales = [ "default"; "small" ]

(* Golden-corpus scale: the models' [small] parameter sets — small
   enough to check in and to replay in a unit test, large enough to
   exercise accept/read/write/mprotect and the verdict cache.  Shared
   with the fleet harness, which harvests its per-trap service
   profiles from the same runs. *)
let nginx_small = Workloads.Nginx_model.small
let sqlite_small = Workloads.Sqlite_model.small
let vsftpd_small = Workloads.Vsftpd_model.small

let app_of ~name ~scale : (Drivers.app, string) result =
  if not (List.mem scale scales) then
    Error (Printf.sprintf "unknown scale %S (known: %s)" scale
             (String.concat ", " scales))
  else
    match (name, scale) with
    | "nginx", "default" -> Ok (Drivers.nginx ())
    | "nginx", "small" -> Ok (Drivers.nginx ~params:nginx_small ())
    | "sqlite", "default" -> Ok (Drivers.sqlite ())
    | "sqlite", "small" -> Ok (Drivers.sqlite ~params:sqlite_small ())
    | "vsftpd", "default" -> Ok (Drivers.vsftpd ())
    | "vsftpd", "small" -> Ok (Drivers.vsftpd ~params:vsftpd_small ())
    | _ -> Error (Printf.sprintf "unknown app %S (known: nginx, sqlite, vsftpd)" name)

let attack_of ~id : (Attacks.Attack.t, string) result =
  match
    List.find_opt (fun (a : Attacks.Attack.t) -> String.equal a.a_id id)
      Attacks.Catalog.all
  with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown attack id %S (see `bastion list`)" id)

let malformed ~file msg = raise (Trace.Malformed { file; line = 1; msg })

(* The one resolver from header keys to runnable values: recording,
   replay and [base_bundle] all go through it, and an unknown key is a
   line-1 error against [file]. *)
let resolve_run ~file ~app ~scale ~defense : Drivers.app * Drivers.defense =
  let a = match app_of ~name:app ~scale with Ok a -> a | Error msg -> malformed ~file msg in
  match defense_of_key defense with
  | Some d -> (a, d)
  | None -> malformed ~file (Printf.sprintf "unknown defense %S" defense)

let resolve_attack ~file ~attack_id ~config : Attacks.Attack.t * Runner.config =
  let a = match attack_of ~id:attack_id with Ok a -> a | Error msg -> malformed ~file msg in
  match config_of_key config with
  | Some c -> (a, c)
  | None -> malformed ~file (Printf.sprintf "unknown attack config %S" config)

let fingerprint_of (mon : Bastion.Monitor.t) =
  Bastion.Metadata.fingerprint mon.Bastion.Monitor.meta

(* ------------------------------------------------------------------ *)
(* Recording *)

(* Default-scale SQLite records ~116k traps; give the audit ring ample
   headroom so a recorded stream is never silently truncated (a
   dropped-oldest ring would break seq contiguity and the reader would
   reject the file). *)
let recording_ring_capacity = 1 lsl 21

(* The one header builder: every recorded trace gets its header here,
   and a recorder that dropped events is refused rather than written as
   a trace the reader would later reject. *)
let write_trace ~recorder ~path ~kind ~trap_cache ~pre_resolve ~prefilter
    ~fingerprint ~cycles : Trace.header =
  let dropped = Obs.Recorder.events_dropped recorder in
  if dropped > 0 then
    failwith
      (Printf.sprintf
         "recording dropped %d events (ring too small); refusing to write an \
          unreplayable trace to %s"
         dropped path);
  let header =
    { Trace.h_version = Trace.current_version; h_kind = kind; h_trap_cache = trap_cache;
      h_pre_resolve = pre_resolve; h_prefilter = prefilter; h_fingerprint = fingerprint;
      h_against = None; h_traps = List.length (Obs.Recorder.trap_events recorder);
      h_cycles = cycles }
  in
  Obs.Recorder.write_jsonl ~header:(Trace.header_to_json header) recorder path;
  header

let write_run_trace ~recorder ~trap_cache ~pre_resolve ~prefilter ~app ~scale
    ~path (m : Drivers.measurement) : Trace.header =
  write_trace ~recorder ~path
    ~kind:(Trace.Run { app; defense = defense_key m.m_defense; scale })
    ~trap_cache ~pre_resolve ~prefilter
    ~fingerprint:(match m.m_monitor with Some mon -> fingerprint_of mon | None -> "-")
    ~cycles:m.m_cycles

let record_run ?(trap_cache = true) ?(pre_resolve = false) ?prefilter ~app
    ~scale ~defense ~path () : Drivers.measurement =
  let a, _ = resolve_run ~file:path ~app ~scale ~defense:(defense_key defense) in
  let recorder =
    Obs.Recorder.create ~tracing:true ~ring_capacity:recording_ring_capacity ()
  in
  let m = Drivers.run ~trap_cache ~pre_resolve ?prefilter ~recorder a defense in
  ignore
    (write_run_trace ~recorder ~trap_cache ~pre_resolve ~prefilter ~app ~scale
       ~path m);
  m

let record_attack ?(trap_cache = true) ?(pre_resolve = false) ?prefilter
    ~attack_id ~config ~path () : Runner.outcome =
  (match config with
  | Runner.Undefended ->
    malformed ~file:path "undefended attack runs have no monitor to record"
  | _ -> ());
  let attack, _ = resolve_attack ~file:path ~attack_id ~config:(config_key config) in
  let recorder =
    Obs.Recorder.create ~tracing:true ~ring_capacity:recording_ring_capacity ()
  in
  let fp = ref "-" and machine : Machine.t option ref = ref None in
  let on_session (s : Bastion.Api.session) =
    fp := fingerprint_of s.monitor;
    machine := Some s.machine
  in
  let outcome = Runner.run ~trap_cache ~pre_resolve ?prefilter ~recorder ~on_session attack config in
  ignore
    (write_trace ~recorder ~path
       ~kind:(Trace.Attack { attack_id; config = config_key config })
       ~trap_cache ~pre_resolve ~prefilter ~fingerprint:!fp
       ~cycles:(match !machine with Some m -> m.stats.cycles | None -> 0));
  outcome

(* ------------------------------------------------------------------ *)
(* Report types (documented in the interface) *)

type divergence = {
  dv_line : int; dv_seq : int; dv_field : string; dv_recorded : string; dv_replayed : string;
}

type report = {
  rp_file : string; rp_header : Trace.header;
  rp_traps_recorded : int; rp_traps_replayed : int; rp_cycles_replayed : int;
  rp_header_mismatch : (string * string) option;  (* (recorded, deployed) fingerprints *)
  rp_divergences : divergence list;
}

let ok r = r.rp_header_mismatch = None && r.rp_divergences = []

type flip = {
  fl_line : int; fl_seq : int; fl_sysno : int; fl_sysname : string; fl_rip : int64;
  fl_before : string; fl_after : string;
}

type context_move = {
  cm_line : int; cm_seq : int; cm_sysname : string; cm_before : string; cm_after : string;
}

type diff_report = {
  dr_file : string; dr_header : Trace.header;
  dr_recorded_fp : string; dr_against_fp : string; dr_same_metadata : bool;
  dr_traps_recorded : int; dr_traps_matched : int; dr_moved_to_prefilter : int;
  dr_fresh_unmatched : int; dr_unconsumed_recorded : int;
  dr_allow_to_deny : flip list; dr_deny_to_allow : flip list;
  dr_context_moves : context_move list;
  dr_tier_matrix : (string * string * int) list; dr_tier_moves : int;
  dr_trap_cycle_delta : int; dr_cycles_recorded : int; dr_cycles_replayed : int;
  dr_run_outcome : string option;
}

(* A diff is benign when no verdict moved in either direction, no
   denial changed context, and the replayed run survived.  Tier
   movements and cycle deltas are informational: they are the expected
   consequence of metadata that got better or worse, not breakage. *)
let diff_ok r =
  r.dr_allow_to_deny = [] && r.dr_deny_to_allow = []
  && r.dr_context_moves = [] && r.dr_run_outcome = None

(* ------------------------------------------------------------------ *)
(* The engine.

   The entry point fixes the mode; no caller sets it.  It decides three
   things:
   - the hard gate.  [Strict] never judges a stream against a bundle
     whose fingerprint differs from the recorded one; [Diff] exists to
     do exactly that.
   - alignment.  [Strict] aligns traps by position, so one corrupted
     record cannot derail the records after it.  [Diff] also requires
     the recorded (sysno, rip) to equal the live trap's: changed
     metadata can move traps across the seccomp pre-filter, so the two
     streams can genuinely differ, and a recorded snapshot is only
     injected where the recorded trap demonstrably is the live one.
   - unmatched fresh traps.  [Strict] follows the fresh verdict: past
     the end of the recorded stream there is no recorded behaviour to
     follow.  [Diff] allows them, because the recorded run resolved
     them at the pre-filter, which allowed them.
   When the fingerprints are equal the automata are identical and the
   guard reduces to positional matching; a clean diff over the golden
   corpus is the regression oracle. *)

type mode = Strict | Diff

(* One logged alignment decision, in discovery order. *)
type step =
  | Matched of int * Event.t * Event.t  (* line, recorded, fresh *)
  | Moved_to_prefilter of int * Event.t
      (* line, recorded: a trap the fresh automaton resolved at seccomp
         stage *)
  | Unmatched of Event.t  (* a fresh trap with no recorded counterpart *)

type state = {
  mode : mode;
  expected : (int * Event.t) array;
  mutable idx : int;              (* next recorded trap to align *)
  mutable steps : step list;      (* reverse discovery order *)
  mutable last : Event.t option;  (* fresh event, delivered via on_event *)
  mutable fp : string option;     (* deployed fingerprint, once a session starts *)
  mutable cycles : int;           (* final modelled cycle total of the replay *)
  mutable died : string option;   (* why the replayed run died, if it did *)
}

(* The next recorded trap, if it aligns with a trap at [sysno]/[rip]. *)
let aligned st ~sysno ~rip =
  if st.idx >= Array.length st.expected then None
  else
    let (_, ev) as next = st.expected.(st.idx) in
    if st.mode = Strict || (ev.Event.ev_sysno = sysno && Int64.equal ev.ev_rip rip)
    then Some next
    else None

let snapshot_of_input (i : Event.input) : Ptrace.snapshot =
  let frame (f : Event.frame) =
    { Ptrace.fv_func = f.f_func; fv_callsite = f.f_callsite; fv_args = Array.copy f.f_args;
      fv_ret_token = f.f_ret; fv_base = f.f_base }
  in
  let slot (s : Event.slot_read) =
    (s.sr_base, { Ptrace.sl_lo = s.sr_lo; sl_span = Array.copy s.sr_span })
  in
  (* [sn_calls] is recomputed from the shape by [inject_snapshot]. *)
  { sn_frames = List.map frame i.in_frames; sn_slots = List.map slot i.in_slots; sn_calls = 0 }

(* The injected trap source: recorded inputs with live-identical cost
   accounting, aligned against the live trap ([cur_sysno] and
   [trap_rip] are engine-side peeks, never charged).  Anywhere else —
   no aligned record, or a record without input — the fresh run reads
   the tracee live, which is the ground truth because control flow
   follows the recorded path. *)
let source st : Bastion.Monitor.trap_source =
  let next (tracer : Ptrace.t) =
    aligned st ~sysno:tracer.cur_sysno ~rip:tracer.machine.Machine.trap_rip
  in
  {
    Bastion.Monitor.ts_regs =
      (fun tracer ->
        match next tracer with
        | Some (_, ({ Event.ev_input = Some i; _ } as ev)) ->
          Ptrace.inject_regs tracer
            { Ptrace.rip = ev.ev_rip; sysno = ev.ev_sysno; args = Array.copy i.in_args }
        | _ -> Ptrace.getregs tracer);
    ts_snapshot =
      (fun tracer ~slot_span ->
        match next tracer with
        | Some (_, { Event.ev_input = Some i; _ }) ->
          Ptrace.inject_snapshot tracer (snapshot_of_input i)
        | _ -> Ptrace.snapshot tracer ~slot_span);
  }

(* Wrap the monitor's tracer hook: run the real verification, log the
   fresh event against its aligned recorded trap, then follow the
   *recorded* verdict so the machine re-walks the recorded control
   flow even when the two disagree. *)
let wrap_hook st (proc : Kernel.Process.t) =
  match proc.tracer_hook with
  | None -> ()
  | Some orig ->
    proc.tracer_hook <-
      Some
        (fun p ~sysno ~args ->
          st.last <- None;
          let fresh_verdict = orig p ~sysno ~args in
          match st.last with
          | None -> fresh_verdict
          | Some fresh -> (
            match aligned st ~sysno:fresh.ev_sysno ~rip:fresh.ev_rip with
            | Some (line, recorded) -> (
              st.idx <- st.idx + 1;
              st.steps <- Matched (line, recorded, fresh) :: st.steps;
              match recorded.ev_verdict with
              | Event.Allowed -> Kernel.Process.Continue
              | Event.Denied { d_context; d_detail } ->
                Kernel.Process.Deny { context = d_context; detail = d_detail })
            | None -> (
              st.steps <- Unmatched fresh :: st.steps;
              match st.mode with
              | Strict -> fresh_verdict
              | Diff -> Kernel.Process.Continue)))

(* The other side of the seccomp boundary: the fresh automaton resolves
   a trap the recorded run delivered to the full monitor, which
   consumes the recorded trap.  Installed only when the fingerprints
   differ: with identical metadata the automata are identical and the
   recorded stream holds exactly the fall-throughs. *)
let wrap_resolve st (mon : Bastion.Monitor.t) =
  match Bastion.Monitor.prefilter mon with
  | None -> ()
  | Some fa ->
    let orig = fa.Kernel.Seccomp.fa_on_resolve in
    fa.Kernel.Seccomp.fa_on_resolve <-
      Some
        (fun ~sysno ~rip ->
          (match orig with Some f -> f ~sysno ~rip | None -> ());
          match aligned st ~sysno ~rip with
          | Some (line, recorded) ->
            st.idx <- st.idx + 1;
            st.steps <- Moved_to_prefilter (line, recorded) :: st.steps
          | None -> ())

(* The session runner: re-execute the recorded configuration (against
   [against] when given) with the shared source and hooks deployed on
   its monitored session, and return the filled state. *)
let run_session mode ?against (tr : Trace.t) : state =
  let h = tr.t_header and file = tr.t_file in
  let st =
    { mode; expected = Array.of_list tr.t_events; idx = 0; steps = [];
      last = None; fp = None; cycles = 0; died = None }
  in
  let recorder = Obs.Recorder.create () in
  Obs.Recorder.set_on_event recorder (Some (fun ev -> st.last <- Some ev));
  (* Returns whether the stream is judged at all. *)
  let deploy monitor process =
    let fp = match monitor with Some mon -> fingerprint_of mon | None -> "-" in
    st.fp <- Some fp;
    let same = String.equal fp h.h_fingerprint in
    let judged = same || mode = Diff in
    if judged then begin
      (match monitor with
      | Some mon ->
        Bastion.Monitor.set_source mon (source st);
        if not same then wrap_resolve st mon
      | None -> ());
      wrap_hook st process
    end;
    judged
  in
  (match h.h_kind with
  | Trace.Run { app; defense; scale } ->
    let a, defense = resolve_run ~file ~app ~scale ~defense in
    let pr =
      Drivers.prepare ~trap_cache:h.h_trap_cache ~pre_resolve:h.h_pre_resolve
        ?prefilter:h.h_prefilter ?bundle:against ~recorder a defense
    in
    if deploy pr.pr_monitor pr.pr_process then begin
      (* Following a corrupted recorded verdict can kill the replayed
         process; that is itself a finding, not an engine failure. *)
      (try ignore (Drivers.execute pr)
       with Drivers.Benign_run_died msg -> st.died <- Some msg);
      st.cycles <- pr.pr_machine.stats.cycles
    end
  | Trace.Attack { attack_id; config } ->
    let attack, config = resolve_attack ~file ~attack_id ~config in
    let machine : Machine.t option ref = ref None in
    let on_session (s : Bastion.Api.session) =
      machine := Some s.machine;
      ignore (deploy (Some s.monitor) s.process)
    in
    ignore
      (Runner.run ~trap_cache:h.h_trap_cache ~pre_resolve:h.h_pre_resolve
         ?prefilter:h.h_prefilter ?bundle:against ~recorder ~on_session attack
         config);
    st.cycles <- (match !machine with Some m -> m.stats.cycles | None -> 0));
  st

(* ------------------------------------------------------------------ *)
(* Strict replay: field comparisons over the matched pairs plus the
   run-level checks. *)

let hex = Printf.sprintf "0x%Lx"

let verdict_str = function
  | Event.Allowed -> "allowed"
  | Event.Denied { d_context; d_detail } ->
    Printf.sprintf "denied[%s: %s]" d_context d_detail

let cache_str = function None -> "-" | Some true -> "hit" | Some false -> "miss"

let spans_str spans =
  String.concat " "
    (List.map
       (fun (sp : Event.span) ->
         Printf.sprintf "%s:%s@%d+%d" (Event.phase_name sp.sp_phase)
           (Event.outcome_name sp.sp_outcome) sp.sp_start sp.sp_dur)
       spans)

(* Field-by-field comparison of one trap.  The default set covers what
   the acceptance gate calls verdict/cycle divergences; [strict] adds
   every remaining recorded field. *)
let compare_event ~strict push ~line (recorded : Event.t) (fresh : Event.t) =
  let seq = recorded.ev_seq in
  let chk field conv a b = if a <> b then push ~line ~seq field (conv a) (conv b) in
  chk "kind" Event.kind_name recorded.ev_kind fresh.ev_kind;
  chk "sysno" string_of_int recorded.ev_sysno fresh.ev_sysno;
  chk "sysname" Fun.id recorded.ev_sysname fresh.ev_sysname;
  chk "rip" hex recorded.ev_rip fresh.ev_rip;
  chk "verdict" verdict_str recorded.ev_verdict fresh.ev_verdict;
  chk "depth" string_of_int recorded.ev_depth fresh.ev_depth;
  chk "dur_cycles" string_of_int recorded.ev_dur fresh.ev_dur;
  if strict then begin
    chk "seq" string_of_int recorded.ev_seq fresh.ev_seq;
    chk "start_cycles" string_of_int recorded.ev_start fresh.ev_start;
    chk "cache" cache_str recorded.ev_cache fresh.ev_cache;
    chk "ptrace_calls" string_of_int recorded.ev_ptrace_calls fresh.ev_ptrace_calls;
    chk "ptrace_words" string_of_int recorded.ev_ptrace_words fresh.ev_ptrace_words;
    chk "shadow_probes" string_of_int recorded.ev_shadow_probes fresh.ev_shadow_probes;
    chk "phases" spans_str recorded.ev_spans fresh.ev_spans
  end

let strict_report ~strict (tr : Trace.t) (st : state) : report =
  let h = tr.t_header and n = Array.length st.expected in
  let report = { rp_file = tr.t_file; rp_header = h; rp_traps_recorded = n;
                 rp_traps_replayed = 0; rp_cycles_replayed = 0;
                 rp_header_mismatch = None; rp_divergences = [] } in
  match st.fp with
  | Some fp when not (String.equal fp h.h_fingerprint) ->
    (* The hard gate: the stream was never judged. *)
    { report with rp_header_mismatch = Some (h.h_fingerprint, fp) }
  | _ ->
    let divs = ref [] in
    let push ~line ~seq field recorded replayed =
      divs := { dv_line = line; dv_seq = seq; dv_field = field;
                dv_recorded = recorded; dv_replayed = replayed } :: !divs
    in
    let extra = ref 0 in
    List.iter
      (function
        | Matched (line, recorded, fresh) -> compare_event ~strict push ~line recorded fresh
        | Unmatched fresh ->
          incr extra;
          if !extra = 1 then
            push ~line:0 ~seq:(-1) "extra-trap" "(end of recorded stream)"
              (Printf.sprintf "%s(%d) at cycle %d" fresh.ev_sysname fresh.ev_sysno
                 fresh.ev_start)
        | Moved_to_prefilter _ -> () (* needs changed metadata, which the gate refuses *))
      (List.rev st.steps);
    Option.iter (push ~line:0 ~seq:(-1) "run-outcome" "clean exit") st.died;
    if st.idx < n then begin
      let line, first_missing = st.expected.(st.idx) in
      push ~line ~seq:first_missing.ev_seq "missing-traps" (Printf.sprintf "%d traps" n)
        (Printf.sprintf "%d traps (stream ends at seq %d)" st.idx first_missing.ev_seq)
    end;
    if !extra > 1 then
      push ~line:0 ~seq:(-1) "extra-traps" "0"
        (Printf.sprintf "%d traps past the recorded stream" !extra);
    if st.cycles <> h.h_cycles then
      push ~line:0 ~seq:(-1) "total-cycles" (string_of_int h.h_cycles)
        (string_of_int st.cycles);
    { report with rp_traps_replayed = st.idx + !extra; rp_cycles_replayed = st.cycles;
                  rp_divergences = List.rev !divs }

let replay ?(strict = false) (tr : Trace.t) : report =
  strict_report ~strict tr (run_session Strict tr)

(* ------------------------------------------------------------------ *)
(* Differential replay: verdict flips (allow->deny and deny->allow
   separately), denial-context moves, the tier-transition matrix and
   cycle deltas over the same log.  A trap only one side delivered
   crossed the seccomp boundary, so its other side is the pre-filter
   tier and an allow. *)

let tier_rank_name r =
  match Event.tier_of_rank r with Some t -> Event.tier_name t | None -> "?"

let at_prefilter = (Event.Allowed, "allowed@prefilter", Some Event.Tier_prefilter)
let judged (ev : Event.t) = (ev.ev_verdict, verdict_str ev.ev_verdict, ev.ev_tier)

let diff_report_of (tr : Trace.t) (st : state) : diff_report =
  let h = tr.t_header and n = Array.length st.expected in
  let against_fp =
    match st.fp with
    | Some fp -> fp
    | None -> malformed ~file:tr.t_file "undefended attack traces cannot be diff-replayed"
  in
  let matrix = Array.make_matrix 6 6 0 in
  let matched = ref 0 and moved_pre = ref 0 and unmatched = ref 0 and delta = ref 0 in
  let ad = ref [] and da = ref [] and ctx = ref [] in
  (* Classify one trap's movement; [ev] names the trap in the report. *)
  let classify ~line ~seq (ev : Event.t) (bv, before, btier) (av, after, atier) =
    (match (btier, atier) with
    | Some b, Some a ->
      let b = Event.tier_rank b and a = Event.tier_rank a in
      matrix.(b).(a) <- matrix.(b).(a) + 1
    | _ -> ());  (* fetch-only records carry no tier; nothing to place *)
    let flip () =
      { fl_line = line; fl_seq = seq; fl_sysno = ev.ev_sysno; fl_sysname = ev.ev_sysname;
        fl_rip = ev.ev_rip; fl_before = before; fl_after = after }
    in
    match (bv, av) with
    | Event.Allowed, Event.Allowed -> ()
    | Event.Allowed, Event.Denied _ -> ad := flip () :: !ad
    | Event.Denied _, Event.Allowed -> da := flip () :: !da
    | Event.Denied _, Event.Denied _ ->
      if bv <> av then
        ctx := { cm_line = line; cm_seq = seq; cm_sysname = ev.ev_sysname;
                 cm_before = before; cm_after = after } :: !ctx
  in
  List.iter
    (function
      | Matched (line, recorded, fresh) ->
        incr matched;
        delta := !delta + fresh.ev_dur - recorded.ev_dur;
        classify ~line ~seq:recorded.ev_seq recorded (judged recorded) (judged fresh)
      | Moved_to_prefilter (line, recorded) ->
        incr moved_pre;
        classify ~line ~seq:recorded.ev_seq recorded (judged recorded) at_prefilter
      | Unmatched fresh ->
        incr unmatched;
        classify ~line:0 ~seq:(-1) fresh at_prefilter (judged fresh))
    (List.rev st.steps);
  let entries = ref [] and moves = ref 0 in
  for b = 5 downto 0 do
    for a = 5 downto 0 do
      let c = matrix.(b).(a) in
      if c > 0 then begin
        if b <> a then moves := !moves + c;
        entries := (tier_rank_name b, tier_rank_name a, c) :: !entries
      end
    done
  done;
  { dr_file = tr.t_file; dr_header = { h with Trace.h_against = Some against_fp };
    dr_recorded_fp = h.h_fingerprint; dr_against_fp = against_fp;
    dr_same_metadata = String.equal against_fp h.h_fingerprint;
    dr_traps_recorded = n; dr_traps_matched = !matched; dr_moved_to_prefilter = !moved_pre;
    dr_fresh_unmatched = !unmatched; dr_unconsumed_recorded = n - st.idx;
    dr_allow_to_deny = List.rev !ad; dr_deny_to_allow = List.rev !da;
    dr_context_moves = List.rev !ctx; dr_tier_matrix = !entries; dr_tier_moves = !moves;
    dr_trap_cycle_delta = !delta; dr_cycles_recorded = h.h_cycles;
    dr_cycles_replayed = st.cycles; dr_run_outcome = st.died }

let diff_replay ?against (tr : Trace.t) : diff_report =
  diff_report_of tr (run_session Diff ?against tr)

(* The in-tree compile pass for the recorded configuration — the base
   whose instrumented program an edited metadata file is restored
   against ([Metadata_io.load (base_bundle tr).inst.iprog]). *)
let base_bundle (tr : Trace.t) : Bastion.Api.protected =
  let pre_resolve = tr.t_header.h_pre_resolve and file = tr.t_file in
  match tr.t_header.h_kind with
  | Trace.Run { app; defense; scale } ->
    let a, defense = resolve_run ~file ~app ~scale ~defense in
    let fs = match defense with Drivers.Bastion_fs _ -> true | _ -> false in
    Drivers.protected_of ~pre_resolve a ~fs
  | Trace.Attack { attack_id; config } ->
    let attack, _ = resolve_attack ~file ~attack_id ~config in
    let p =
      Bastion.Api.protect ~protect_filesystem:attack.a_fs_scope
        (attack.a_victim.v_build ())
    in
    if pre_resolve then Bastion_analysis.Preresolve.enrich p else p

(* ------------------------------------------------------------------ *)
(* Reporting *)

let num i = Report.Json.Num (float_of_int i)

let divergence_to_json (d : divergence) : Report.Json.t =
  Report.Json.(
    Obj [ ("line", num d.dv_line); ("seq", num d.dv_seq); ("field", Str d.dv_field);
          ("recorded", Str d.dv_recorded); ("replayed", Str d.dv_replayed) ])

let report_to_json (r : report) : Report.Json.t =
  let open Report.Json in
  Obj
    ([
      ("file", Str r.rp_file);
      ("header", Trace.header_to_json r.rp_header);
      ("traps_recorded", num r.rp_traps_recorded);
      ("traps_replayed", num r.rp_traps_replayed);
      ("cycles_recorded", num r.rp_header.Trace.h_cycles);
      ("cycles_replayed", num r.rp_cycles_replayed);
      ("ok", Bool (ok r));
    ]
    @ (match r.rp_header_mismatch with
      | None -> []
      | Some (recorded, deployed) ->
        [ ("header_mismatch", Obj [ ("recorded", Str recorded); ("deployed", Str deployed) ]) ])
    @ [ ("divergences", List (List.map divergence_to_json r.rp_divergences)) ])

let kind_str = function
  | Trace.Run { app; defense; scale } -> Printf.sprintf "%s/%s [%s]" app defense scale
  | Trace.Attack { attack_id; config } -> Printf.sprintf "%s under %s" attack_id config

let render (r : report) : string =
  let buf = Buffer.create 256 in
  let ndiv = List.length r.rp_divergences in
  Printf.bprintf buf "replay %s: %s — %d traps recorded, %d replayed, %d divergence%s\n"
    r.rp_file (kind_str r.rp_header.Trace.h_kind) r.rp_traps_recorded
    r.rp_traps_replayed ndiv (if ndiv = 1 then "" else "s");
  Option.iter
    (fun (recorded, deployed) ->
      Printf.bprintf buf
        "  %s:1: metadata fingerprint mismatch: recorded %s, deployed %s — \
         stream not judged (use `bastion replay --against` for a \
         differential report)\n"
        r.rp_file recorded deployed)
    r.rp_header_mismatch;
  List.iter
    (fun d ->
      let where =
        if d.dv_line = 0 then Printf.sprintf "%s: run" r.rp_file
        else Printf.sprintf "%s:%d: trap seq %d" r.rp_file d.dv_line d.dv_seq
      in
      Printf.bprintf buf "  %s: %s: recorded %s, replayed %s\n" where d.dv_field
        d.dv_recorded d.dv_replayed)
    r.rp_divergences;
  Buffer.contents buf

let flip_to_json (f : flip) : Report.Json.t =
  Report.Json.(
    Obj [ ("line", num f.fl_line); ("seq", num f.fl_seq); ("sysno", num f.fl_sysno);
          ("sysname", Str f.fl_sysname); ("rip", Str (hex f.fl_rip));
          ("before", Str f.fl_before); ("after", Str f.fl_after) ])

let context_move_to_json (c : context_move) : Report.Json.t =
  Report.Json.(
    Obj [ ("line", num c.cm_line); ("seq", num c.cm_seq); ("sysname", Str c.cm_sysname);
          ("before", Str c.cm_before); ("after", Str c.cm_after) ])

let diff_report_to_json (r : diff_report) : Report.Json.t =
  let open Report.Json in
  Obj
    ([
       ("schema", Str "bastion-diff-replay/1");
       ("file", Str r.dr_file);
       ("header", Trace.header_to_json r.dr_header);
       ("recorded_fingerprint", Str r.dr_recorded_fp);
       ("against_fingerprint", Str r.dr_against_fp);
       ("same_metadata", Bool r.dr_same_metadata);
       ("ok", Bool (diff_ok r));
       ("traps",
        Obj [ ("recorded", num r.dr_traps_recorded); ("matched", num r.dr_traps_matched);
              ("moved_to_prefilter", num r.dr_moved_to_prefilter);
              ("fresh_unmatched", num r.dr_fresh_unmatched);
              ("unconsumed", num r.dr_unconsumed_recorded) ]);
       ("flips",
        Obj [ ("allow_to_deny", List (List.map flip_to_json r.dr_allow_to_deny));
              ("deny_to_allow", List (List.map flip_to_json r.dr_deny_to_allow)) ]);
       ("context_moves", List (List.map context_move_to_json r.dr_context_moves));
       ("tier_matrix",
        List
          (List.map
             (fun (before, after, count) ->
               Obj [ ("before", Str before); ("after", Str after); ("count", num count) ])
             r.dr_tier_matrix));
       ("tier_moves", num r.dr_tier_moves);
       ("cycles",
        Obj [ ("recorded", num r.dr_cycles_recorded); ("replayed", num r.dr_cycles_replayed);
              ("trap_delta", num r.dr_trap_cycle_delta) ]);
     ]
    @ match r.dr_run_outcome with None -> [] | Some msg -> [ ("run_outcome", Str msg) ])

let render_diff (r : diff_report) : string =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "diff-replay %s: %s — recorded %s, against %s%s\n" r.dr_file
    (kind_str r.dr_header.Trace.h_kind) r.dr_recorded_fp r.dr_against_fp
    (if r.dr_same_metadata then " (metadata unchanged)" else "");
  Printf.bprintf buf
    "  traps: %d recorded, %d matched, %d moved to prefilter, %d fresh \
     unmatched, %d unconsumed\n"
    r.dr_traps_recorded r.dr_traps_matched r.dr_moved_to_prefilter
    r.dr_fresh_unmatched r.dr_unconsumed_recorded;
  Printf.bprintf buf "  verdict flips: %d allow->deny, %d deny->allow; context moves: %d\n"
    (List.length r.dr_allow_to_deny) (List.length r.dr_deny_to_allow)
    (List.length r.dr_context_moves);
  if r.dr_tier_moves = 0 then Buffer.add_string buf "  tiers: unchanged\n"
  else
    Printf.bprintf buf "  tiers: %d moved (%s)\n" r.dr_tier_moves
      (String.concat ", "
         (List.filter_map
            (fun (b, a, c) ->
              if String.equal b a then None else Some (Printf.sprintf "%s->%s x%d" b a c))
            r.dr_tier_matrix));
  Printf.bprintf buf "  cycles: %d recorded, %d replayed (trap delta %+d)\n"
    r.dr_cycles_recorded r.dr_cycles_replayed r.dr_trap_cycle_delta;
  let flip_line tag (f : flip) =
    let where =
      if f.fl_line = 0 then Printf.sprintf "%s: unmatched" r.dr_file
      else Printf.sprintf "%s:%d: trap seq %d" r.dr_file f.fl_line f.fl_seq
    in
    Printf.bprintf buf "  %s: %s %s(%d) at %s: %s -> %s\n" where tag f.fl_sysname
      f.fl_sysno (hex f.fl_rip) f.fl_before f.fl_after
  in
  List.iter (flip_line "allow->deny") r.dr_allow_to_deny;
  List.iter (flip_line "deny->allow") r.dr_deny_to_allow;
  List.iter
    (fun (c : context_move) ->
      Printf.bprintf buf "  %s:%d: trap seq %d: context moved: %s -> %s\n" r.dr_file
        c.cm_line c.cm_seq c.cm_before c.cm_after)
    r.dr_context_moves;
  Option.iter (Printf.bprintf buf "  run outcome: %s\n") r.dr_run_outcome;
  Buffer.contents buf
