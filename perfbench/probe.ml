(* Host-clock probes, attached from outside the system under test.

   Two kinds of records:
   - spans around the benchmark's own calls into a layer (a session's
     boot and run, a compile-pass step, a replay), each with a name,
     start, end, parent and session id;
   - per-event aggregates for the three hooks that fire per simulated
     event (Machine.on_syscall, Process.tracer_hook,
     Machine.on_intrinsic).  Recording a span per syscall would cost
     more than the syscall, so each session sums count, host ns,
     minor-heap words and modelled cycles per hook and emits one
     aggregate span per hook when the session ends.

   Spans stay in memory; [write] dumps them when the run ends.  The
   hooks wrap whatever handler the session installed and call it
   unchanged, so observation never alters modelled cycles or verdicts
   (the harness checks this on every run). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor-heap words allocated by the calling domain so far.
   [Gc.minor_words] is an unboxed external, so reading it allocates
   nothing and the per-event hooks do not perturb what they measure. *)
let words () = int_of_float (Gc.minor_words ())

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  session : int;
  t0 : int;  (** host ns *)
  dur : int;  (** host ns; for an aggregate, the summed event time *)
  alloc : int;  (** minor words allocated inside the span *)
  count : int;  (** events folded into an aggregate; 1 for a plain span *)
  cycles : int;  (** modelled cycles elapsed inside the span *)
}

(* One recorder per domain-confined unit of work: pool jobs each get
   their own and the main domain merges them, so recording never
   crosses a domain. *)
type t = {
  base : int;  (** id space of this recorder: ids are [base + k] *)
  mutable next : int;
  mutable spans : span list;
}

let create ~base = { base; next = 0; spans = [] }

let fresh_id r =
  let id = r.base + r.next in
  r.next <- r.next + 1;
  id

let add r s = r.spans <- s :: r.spans

(** [span r ~parent ~session name f] times [f id] as a child of
    [parent]; with no recorder it is just [f (-1)]. *)
let span (r : t option) ~parent ~session name (f : int -> 'a) : 'a =
  match r with
  | None -> f (-1)
  | Some r ->
    let id = fresh_id r in
    let w0 = words () in
    let t0 = now_ns () in
    let finish () =
      add r
        { id; name; parent; session; t0; dur = now_ns () - t0;
          alloc = words () - w0; count = 1; cycles = 0 }
    in
    (match f id with
    | v -> finish (); v
    | exception e -> finish (); raise e)

(** Record a span that began at [t0] (with [w0] words allocated so far)
    and ends now, for intervals whose ends are hook callbacks rather
    than one call; returns its id. *)
let record r ~parent ~session name ~t0 ~w0 =
  let id = fresh_id r in
  add r
    { id; name; parent; session; t0; dur = now_ns () - t0; alloc = words () - w0;
      count = 1; cycles = 0 };
  id

let merge ~into (r : t) = into.spans <- r.spans @ into.spans

(* ------------------------------------------------------------------ *)
(* Per-event hooks                                                     *)

type acc = {
  mutable n : int;
  mutable ns : int;
  mutable alloc : int;
  mutable cyc : int;
}

let acc () = { n = 0; ns = 0; alloc = 0; cyc = 0 }

(* Out of line so the wrappers below stay allocation-free: every
   argument is an immediate int. *)
let[@inline never] settle a ~t0 ~w0 ~c0 (m : Machine.t) =
  a.ns <- a.ns + (now_ns () - t0);
  a.alloc <- a.alloc + (words () - w0);
  a.cyc <- a.cyc + (m.stats.cycles - c0);
  a.n <- a.n + 1

type hooks = {
  kernel : acc;  (** the on_syscall span: seccomp, pre-filter, kernel model *)
  monitor : acc;  (** the tracer_hook span, nested in [kernel] *)
  runtime : acc;  (** the on_intrinsic span: the ctx_* runtime library *)
  syscall_cycles : (int, int) Hashtbl.t option;
      (** modelled cycles of each on_syscall call, value -> count *)
}

let record_cycles tbl c =
  Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))

(** Wrap a booted session's three per-event hooks.  [histogram] also
    keeps the modelled-cycle distribution of on_syscall calls (it
    allocates, so only the warm-up iteration asks for it). *)
let attach ~histogram (m : Machine.t) (p : Kernel.Process.t) : hooks =
  let h =
    { kernel = acc (); monitor = acc (); runtime = acc ();
      syscall_cycles = (if histogram then Some (Hashtbl.create 64) else None) }
  in
  (match m.on_syscall with
  | None -> ()
  | Some f ->
    let k = h.kernel in
    let note c0 (m : Machine.t) =
      match h.syscall_cycles with
      | None -> ()
      | Some tbl -> record_cycles tbl (m.stats.cycles - c0)
    in
    m.on_syscall <-
      Some
        (fun m ~sysno ~args ->
          let c0 = m.stats.cycles and w0 = words () and t0 = now_ns () in
          match f m ~sysno ~args with
          | v -> settle k ~t0 ~w0 ~c0 m; note c0 m; v
          | exception e -> settle k ~t0 ~w0 ~c0 m; note c0 m; raise e));
  (match m.on_intrinsic with
  | None -> ()
  | Some f ->
    let a = h.runtime in
    m.on_intrinsic <-
      Some
        (fun m ~name ~args ->
          let c0 = m.stats.cycles and w0 = words () and t0 = now_ns () in
          match f m ~name ~args with
          | v -> settle a ~t0 ~w0 ~c0 m; v
          | exception e -> settle a ~t0 ~w0 ~c0 m; raise e));
  (match p.tracer_hook with
  | None -> ()
  | Some f ->
    let a = h.monitor in
    p.tracer_hook <-
      Some
        (fun p ~sysno ~args ->
          let c0 = m.stats.cycles and w0 = words () and t0 = now_ns () in
          match f p ~sysno ~args with
          | v -> settle a ~t0 ~w0 ~c0 m; v
          | exception e -> settle a ~t0 ~w0 ~c0 m; raise e));
  h

(** Fold a finished session's hook aggregates into [r] as children of
    its run span [run]: kernel and runtime under the run, monitor under
    kernel. *)
let emit (r : t option) ~run ~session ~t0 (h : hooks) =
  match r with
  | None -> ()
  | Some r ->
    let agg parent name (a : acc) =
      let id = fresh_id r in
      add r
        { id; name; parent; session; t0; dur = a.ns; alloc = a.alloc;
          count = a.n; cycles = a.cyc };
      id
    in
    let k = agg run "kernel" h.kernel in
    ignore (agg k "monitor" h.monitor);
    ignore (agg run "runtime" h.runtime)

(* ------------------------------------------------------------------ *)
(* Session-level counters read from the layers after a session        *)

type counts = {
  mutable instrs : int;
  mutable trap_cache_hits : int;
  mutable trap_cache_lookups : int;
  mutable ptrace_words : int;
  mutable shadow_probes : int;
  mutable shadow_lookups : int;
  mutable prefilter_resolved : int;
  mutable prefilter_eligible : int;
  mutable prefilter_kills : int;  (** attack sessions killed at seccomp stage *)
  mutable monitor_denials : int;  (** attack sessions the full monitor denied *)
  mutable replay_traps : int;  (** traps the replay engine judged *)
  mutable replay_lines : int;  (** trace lines the replay engine read *)
}

let counts () =
  { instrs = 0; trap_cache_hits = 0; trap_cache_lookups = 0; ptrace_words = 0;
    shadow_probes = 0; shadow_lookups = 0; prefilter_resolved = 0;
    prefilter_eligible = 0; prefilter_kills = 0; monitor_denials = 0;
    replay_traps = 0; replay_lines = 0 }

let add_counts ~into c =
  into.instrs <- into.instrs + c.instrs;
  into.trap_cache_hits <- into.trap_cache_hits + c.trap_cache_hits;
  into.trap_cache_lookups <- into.trap_cache_lookups + c.trap_cache_lookups;
  into.ptrace_words <- into.ptrace_words + c.ptrace_words;
  into.shadow_probes <- into.shadow_probes + c.shadow_probes;
  into.shadow_lookups <- into.shadow_lookups + c.shadow_lookups;
  into.prefilter_resolved <- into.prefilter_resolved + c.prefilter_resolved;
  into.prefilter_eligible <- into.prefilter_eligible + c.prefilter_eligible;
  into.prefilter_kills <- into.prefilter_kills + c.prefilter_kills;
  into.monitor_denials <- into.monitor_denials + c.monitor_denials;
  into.replay_traps <- into.replay_traps + c.replay_traps;
  into.replay_lines <- into.replay_lines + c.replay_lines

(** Read one finished session's layer counters into [c]. *)
let count_session c (m : Machine.t) (p : Kernel.Process.t)
    (mon : Bastion.Monitor.t option) =
  c.instrs <- c.instrs + m.stats.instrs;
  c.ptrace_words <- c.ptrace_words + p.tracer.words_read;
  match mon with
  | None -> ()
  | Some mon ->
    let hits, misses, _ = Bastion.Monitor.cache_stats mon in
    c.trap_cache_hits <- c.trap_cache_hits + hits;
    c.trap_cache_lookups <- c.trap_cache_lookups + hits + misses;
    let shadow = mon.runtime.shadow in
    c.shadow_probes <- c.shadow_probes + Bastion.Shadow_memory.probe_count shadow;
    c.shadow_lookups <- c.shadow_lookups + Bastion.Shadow_memory.lookup_count shadow;
    let resolved, fallthroughs, _ = Bastion.Monitor.prefilter_stats mon in
    c.prefilter_resolved <- c.prefilter_resolved + resolved;
    c.prefilter_eligible <- c.prefilter_eligible + resolved + fallthroughs

(* ------------------------------------------------------------------ *)
(* Self time and output                                                *)

(** Every span with its self time and self words: its duration and
    allocation minus those of its direct children. *)
let self_times (spans : span list) : (span * int * int) list =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let ns, words = Option.value ~default:(0, 0) (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent (ns + s.dur, words + s.alloc)
      end)
    spans;
  List.map
    (fun s ->
      let ns, words = Option.value ~default:(0, 0) (Hashtbl.find_opt children s.id) in
      (s, s.dur - ns, s.alloc - words))
    spans

(** Write spans as JSON lines, oldest first. *)
let write path (spans : span list) =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"session\":%d,\"start_ns\":%d,\
         \"dur_ns\":%d,\"alloc_words\":%d,\"count\":%d,\"cycles\":%d}\n"
        s.id s.name s.parent s.session s.t0 s.dur s.alloc s.count s.cycles)
    (List.rev spans);
  close_out oc
