(* The BASTION runtime monitor (§7): a separate process that traps on
   sensitive syscall invocations (seccomp TRACE) and verifies the three
   contexts against compiler metadata before letting the call proceed.

   Enforcement order follows §7.2-§7.4: Call-Type, then Control-Flow,
   then Argument-Integrity; a violation kills the protected application.
   Every inspection of the tracee charges ptrace-modelled cycle costs. *)

module Ptrace = Kernel.Ptrace
module Process = Kernel.Process
module Syscalls = Kernel.Syscalls

type contexts = { ct : bool; cf : bool; ai : bool }

let all_contexts = { ct = true; cf = true; ai = true }
let no_contexts = { ct = false; cf = false; ai = false }

(** How the §11.2 filesystem-syscall extension is deployed (Table 7). *)
type fs_mode =
  | Fs_off          (** main evaluation: fs syscalls simply allowed *)
  | Fs_hook_only    (** row 1: seccomp evaluates, no trap *)
  | Fs_fetch_only   (** row 2: trap + fetch process state, no checking *)
  | Fs_full         (** row 3: trap + full context checking *)

type config = {
  contexts : contexts;
  fs_mode : fs_mode;
  sockaddr_fastpath : bool;
  trap_cache : bool;
  taint_cheap_path : bool;
      (** verify ranked-untainted AI slots through the single-probe
          cheap recipe instead of the binding+shadow pair; inert on
          bundles without slot ranks *)
}

let default_config =
  { contexts = all_contexts; fs_mode = Fs_off; sockaddr_fastpath = true;
    trap_cache = true; taint_cheap_path = true }

type denial = { d_sysno : int; d_context : string; d_detail : string }

(** Where a trap's register file and stack snapshot come from.  The
    live source reads the stopped tracee over ptrace; the replay engine
    substitutes a source that hands back *recorded* inputs (charging
    identical modelled costs), so the same verification code re-judges
    a trace offline. *)
type trap_source = {
  ts_regs : Ptrace.t -> Ptrace.regs;
  ts_snapshot :
    Ptrace.t -> slot_span:(string -> (int * int) option) -> Ptrace.snapshot;
}

let live_source =
  {
    ts_regs = Ptrace.getregs;
    ts_snapshot = (fun tracer ~slot_span -> Ptrace.snapshot tracer ~slot_span);
  }

(* ------------------------------------------------------------------ *)
(* Metadata decoded once per monitor.  The trap path never re-hashes a
   function name into the cache key or walks an association list: each
   frame resolves to a function record and a callsite record once per
   trap, and every check reads those. *)

module Addr_tbl = Machine.Memory.Addr_tbl

module Name_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* One function: its cache-key name hash and its sensitive locals. *)
type func_rec = {
  fn_name : string;
  fn_hash : int64;               (* [Verdict_cache.hash_string fn_name] *)
  fn_slots : int array;          (* sensitive-slot word offsets *)
  fn_span : (int * int) option;  (* their (lo, hi), built once *)
}

(* How one argument position's legitimate value is found, in the order
   the monitor tries them. *)
type arg_check =
  | Check_const of int64  (* [Spec_const] *)
  | Check_pre of int64    (* pre-resolved [Spec_mem] *)
  | Check_mem of {
      ctx : (int * int64) array;  (* (caller callsite id, constant) *)
      rank : bool option;         (* taint rank, [true] = tainted *)
      cheap : Metadata.cheap_recipe option;
          (* set only when untainted and the cheap path is on *)
      binding : int64;            (* binding-table key of (site, position) *)
    }

(* What the syscall identity says to do with the pointee (§6.3.2). *)
type pointee = Value_only | Sockaddr_read | Extended_scan

type arg_rec = { ar_pos : int; ar_check : arg_check; ar_pointee : pointee }

(* One traced callsite. *)
type site_rec = {
  st_id : int;
  st_callee : string;
  st_sysno : int option;
  st_dead : bool;
  st_args : arg_rec array;  (* metadata order *)
}

(* One sensitive global region and its word addresses. *)
type global_rec = { gl_name : string; gl_addr : int64; gl_words : int64 array }

type decoded = {
  defined : (string, Sil.Func.t) Hashtbl.t;  (* the program's functions *)
  func_slots : (string, int list) Hashtbl.t;  (* [Metadata.func_slots] *)
  funcs : func_rec Name_tbl.t;  (* built on a function's first trap *)
  sites : site_rec Addr_tbl.t;
  globals : global_rec array;
  (* The trap in flight, innermost frame first: each frame's records,
     name hash and return token. *)
  mutable fr_funcs : func_rec array;
  mutable fr_sites : site_rec array;
  mutable fr_hashes : int64 array;
  mutable fr_tokens : int64 option array;
  mutable fr_seen : int;  (* frames the snapshot's slot-span query resolved *)
  span_query : string -> (int * int) option;
      (* the snapshot's slot-span query, which also resolves the frame *)
}

type t = {
  meta : Metadata.t;
  runtime : Runtime.t;
  config : config;
  machine : Machine.t;
  cache : Verdict_cache.t;
  mutable recorder : Obs.Recorder.t option;
  mutable source : trap_source;
      (** trap-input source: live ptrace by default, recorded for replay *)
  mutable prefilter : Kernel.Seccomp.flow_automaton option;
      (** the deployed syscall-flow pre-filter, if any (tiered entry
          point: resolved calls never reach {!full_check}) *)
  mutable traps_checked : int;
  mutable init_cycles : int;
  mutable pre_resolved_hits : int;
      (** AI slots verified against a static constant (no shadow probe) *)
  mutable ctx_hits : int;
      (** AI slots verified against a per-caller constant (no probe) *)
  mutable ai_tainted : int;
      (** ranked slot verifications that took the full path (tainted) *)
  mutable ai_untainted : int;
      (** ranked slot verifications eligible for the cheap path *)
  mutable denials : denial list;
  mutable cur_tier : int;
      (** deepest {!Obs.Event.tier} rank engaged by the trap in flight
          (-1: none yet); folded into the event at {!obs_finish} *)
  tier_counts : int array;
      (** per-tier trap totals, indexed by {!Obs.Event.tier_rank} (the
          prefilter slot stays 0 here — resolved calls never trap) *)
  (* §9.2 statistics: call-stack depth observed at each verified trap. *)
  mutable depth_total : int;
  mutable depth_min : int;
  mutable depth_max : int;
  mutable depth_samples : int;
  dec : decoded;
}

exception Deny of string * string  (** context, detail *)

let build_func name offsets =
  let fn_slots = Array.of_list offsets in
  let fn_span =
    match offsets with
    | [] -> None
    | first :: _ ->
      Some (List.fold_left min first offsets, List.fold_left max first offsets)
  in
  { fn_name = name; fn_hash = Verdict_cache.hash_string name; fn_slots; fn_span }

(* Each position decodes exactly as the trap-time association lookups
   used to resolve it: first binding wins. *)
let decode_site (config : config) (e : Metadata.cs_entry) =
  let arg (pos, spec) =
    let ar_check =
      match spec with
      | Metadata.Spec_const c -> Check_const c
      | Metadata.Spec_mem when List.mem_assoc pos e.e_pre -> Check_pre (List.assoc pos e.e_pre)
      | Metadata.Spec_mem ->
        let rank = List.assoc_opt pos e.e_ranks in
        Check_mem
          {
            ctx = Array.of_list (Option.value ~default:[] (List.assoc_opt pos e.e_pre_ctx));
            rank;
            cheap =
              (match rank with
              | Some false when config.taint_cheap_path -> List.assoc_opt pos e.e_cheap
              | _ -> None);
            binding = Shadow_memory.binding_key ~id:e.e_id ~pos;
          }
    in
    let ar_pointee =
      match e.e_sysno with
      | None -> Value_only
      | Some nr -> (
        match Arg_rules.kind ~sysno:nr ~pos with
        | Arg_rules.Direct -> Value_only
        | Arg_rules.Sockaddr when config.sockaddr_fastpath -> Sockaddr_read
        | Arg_rules.Sockaddr | Arg_rules.Extended -> Extended_scan)
    in
    { ar_pos = pos; ar_check; ar_pointee }
  in
  { st_id = e.e_id; st_callee = e.e_callee; st_sysno = e.e_sysno; st_dead = e.e_dead;
    st_args = Array.of_list (List.map arg e.e_specs) }

(* A frame whose callsite carries no metadata. *)
let no_site = { st_id = -1; st_callee = ""; st_sysno = None; st_dead = false; st_args = [||] }

let no_func = build_func "" []

(* A function's record is built the first time a trap meets it: a
   session meets a few dozen of a program's hundreds of functions.  A
   name neither the program nor the metadata defines (a replayed or
   tampered frame) gets a fresh record each time, the same cache-key
   hash and no slots, so hostile input cannot grow the table. *)
let find_func (d : decoded) name =
  match Name_tbl.find d.funcs name with
  | r -> r
  | exception Not_found ->
    let slots = Hashtbl.find_opt d.func_slots name in
    let r = build_func name (Option.value ~default:[] slots) in
    if Option.is_some slots || Hashtbl.mem d.defined name then Name_tbl.replace d.funcs name r;
    r

let find_site (d : decoded) addr =
  match Addr_tbl.find d.sites addr with s -> s | exception Not_found -> no_site

let ensure_depth (d : decoded) n =
  let cap = Array.length d.fr_funcs in
  if n > cap then begin
    let grow a fill =
      let b = Array.make (max n (2 * cap)) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    d.fr_funcs <- grow d.fr_funcs no_func;
    d.fr_sites <- grow d.fr_sites no_site;
    d.fr_hashes <- grow d.fr_hashes 0L;
    d.fr_tokens <- grow d.fr_tokens None
  end

let note_span (d : decoded) name =
  let fn = find_func d name in
  let i = d.fr_seen in
  ensure_depth d (i + 1);
  d.fr_funcs.(i) <- fn;
  d.fr_seen <- i + 1;
  fn.fn_span

(* Resolve each frame once per trap, filling the per-trap arrays from
   [i] on; returns the depth.  A frame reuses the function record the
   slot-span query resolved for it when that record names it (always,
   on a live snapshot; a recorded snapshot is never queried). *)
let rec resolve_frames (d : decoded) i = function
  | [] -> i
  | (fv : Ptrace.frame_view) :: rest ->
    ensure_depth d (i + 1);
    let fn =
      if i < d.fr_seen && String.equal d.fr_funcs.(i).fn_name fv.fv_func then
        d.fr_funcs.(i)
      else find_func d fv.fv_func
    in
    d.fr_funcs.(i) <- fn;
    d.fr_hashes.(i) <- fn.fn_hash;
    d.fr_tokens.(i) <- fv.fv_ret_token;
    d.fr_sites.(i) <- find_site d fv.fv_callsite;
    resolve_frames d (i + 1) rest

let decode (meta : Metadata.t) config (machine : Machine.t) =
  let sites = Addr_tbl.create 64 in
  Hashtbl.iter
    (fun addr _ ->
      if not (Addr_tbl.mem sites addr) then
        Addr_tbl.replace sites addr (decode_site config (Hashtbl.find meta.cs_by_addr addr)))
    meta.cs_by_addr;
  let globals =
    Array.of_list
      (List.map
         (fun (gl_name, gl_addr, words) ->
           { gl_name; gl_addr; gl_words = Array.init words (Machine.Memory.addr_add gl_addr) })
         meta.checked_globals)
  in
  let depth = 64 in
  let fr_funcs = Array.make depth no_func and fr_sites = Array.make depth no_site in
  let fr_hashes = Array.make depth 0L and fr_tokens = Array.make depth None in
  let rec d =
    { defined = machine.prog.funcs; func_slots = meta.func_slots; funcs = Name_tbl.create 64;
      sites; globals; fr_funcs; fr_sites; fr_hashes; fr_tokens; fr_seen = 0;
      span_query = (fun name -> note_span d name) }
  in
  d

let create ?recorder ~(meta : Metadata.t) ~(runtime : Runtime.t) ~config
    (machine : Machine.t) =
  (* Loading metadata: a linear pass over all entries (the paper reports
     10-20 ms; we report cycles in stats, not on the tracee's clock). *)
  let init_cycles = 40 * meta.entry_count in
  {
    meta;
    runtime;
    config;
    machine;
    cache = Verdict_cache.create ();
    recorder;
    source = live_source;
    prefilter = None;
    traps_checked = 0;
    init_cycles;
    pre_resolved_hits = 0;
    ctx_hits = 0;
    ai_tainted = 0;
    ai_untainted = 0;
    denials = [];
    cur_tier = -1;
    tier_counts = Array.make 6 0;
    depth_total = 0;
    depth_min = max_int;
    depth_max = 0;
    depth_samples = 0;
    dec = decode meta config machine;
  }

let set_recorder (t : t) r = t.recorder <- r
let set_source (t : t) s = t.source <- s

let charge_check (t : t) = Machine.charge t.machine t.machine.config.cost.monitor_check

(* Resolution-tier tracking: each piece of machinery a trap engages
   notes its {!Obs.Event.tier_rank}; the trap's tier is the deepest
   note.  Pure bookkeeping — never charges modelled cycles, so cycle
   totals are identical with or without a recorder. *)
let note_tier (t : t) tier =
  let rank = Obs.Event.tier_rank tier in
  if rank > t.cur_tier then t.cur_tier <- rank

(* Shadow-memory access from the monitor side.  The shadow region is
   mapped *shared* between the application and the monitor (§7.1), so
   lookups are local probes, not remote reads.  Returns the entry's
   slot index, or -1 when absent; {!shadow_value} reads it. *)
let shadow_find (t : t) addr =
  let shadow = t.runtime.shadow in
  let i = Shadow_memory.find_index shadow addr in
  Machine.charge t.machine
    (t.machine.config.cost.monitor_check + (2 * Shadow_memory.last_probes shadow));
  i

let shadow_value (t : t) i = Shadow_memory.value_at t.runtime.shadow i

let in_rodata addr =
  addr >= Machine.Layout.rodata_base && addr < Machine.Layout.data_base

(* ------------------------------------------------------------------ *)
(* Call-Type context (§7.2)                                            *)

let check_call_type (t : t) (regs : Ptrace.regs) =
  charge_check t;
  let ct = Calltype.call_type t.meta.calltype regs.sysno in
  match Hashtbl.find_opt t.meta.conv_by_addr regs.rip with
  | None -> raise (Deny ("call-type", "syscall invoked from unknown callsite"))
  | Some (Metadata.Conv_direct callee) ->
    if not ct.directly then
      raise
        (Deny
           ( "call-type",
             Printf.sprintf "%s is not directly-callable" (Syscalls.name regs.sysno) ));
    (* The decoded call instruction must actually name this syscall. *)
    (match Hashtbl.find_opt t.machine.prog.funcs callee with
    | Some stub when Sil.Func.syscall_number stub = Some regs.sysno -> ()
    | Some _ | None ->
      raise (Deny ("call-type", "callsite does not match trapped syscall")))
  | Some Metadata.Conv_indirect ->
    if not ct.indirectly then
      raise
        (Deny
           ( "call-type",
             Printf.sprintf "%s is not indirectly-callable" (Syscalls.name regs.sysno) ))

(* ------------------------------------------------------------------ *)
(* Control-Flow context (§7.3)                                         *)

let loc_of_rip (t : t) (rip : int64) : Sil.Loc.t option =
  match Machine.Layout.point_of_addr t.machine.layout rip with
  | Some (Machine.Layout.Instr_at loc) -> Some loc
  | Some (Machine.Layout.Term_of _) | None -> None

let check_control_flow (t : t) (tracer : Ptrace.t) (regs : Ptrace.regs)
    (frames : Ptrace.frame_view list) =
  let syscall_loc =
    match loc_of_rip t regs.rip with
    | Some loc -> loc
    | None -> raise (Deny ("control-flow", "trap rip is not a call instruction"))
  in
  charge_check t;
  if not (Cfg_analysis.is_sensitive_callsite t.meta.cfg syscall_loc) then
    raise (Deny ("control-flow", "callsite is not in the CFG metadata"));
  (match frames with
  | top :: _ when String.equal top.fv_func syscall_loc.func -> ()
  | _ -> raise (Deny ("control-flow", "stack top does not match the trapping callsite")));
  (* Unwind callee -> caller pairs until main or an indirect callsite. *)
  let rec walk = function
    | [] -> ()
    | (inner : Ptrace.frame_view) :: rest -> (
      charge_check t;
      match inner.fv_ret_token with
      | None ->
        (* Bottom of the stack: the frame with no caller must be the
           program entry point; anything else is a pivoted stack. *)
        if not (String.equal inner.fv_func t.machine.prog.entry) then
          raise
            (Deny
               ( "control-flow",
                 Printf.sprintf "stack bottoms out in %s, not in %s" inner.fv_func
                   t.machine.prog.entry ))
      | Some token -> (
        match Ptrace.callsite_of_token tracer token with
        | None ->
          raise (Deny ("control-flow", "return address does not map to a callsite"))
        | Some caller_site -> (
          (match rest with
          | outer :: _ when String.equal caller_site.func outer.fv_func -> ()
          | _ ->
            raise
              (Deny ("control-flow", "unwound caller does not match the next frame")));
          let caller_addr = Machine.Layout.addr_of_loc t.machine.layout caller_site in
          match Hashtbl.find_opt t.meta.conv_by_addr caller_addr with
          | Some Metadata.Conv_indirect ->
            (* A legitimate indirect callsite ends verification: the
               partial trace up to here matched the expected one. *)
            if
              Calltype.is_legit_indirect_callsite t.meta.calltype caller_site
              && Calltype.is_indirect_target t.meta.calltype inner.fv_func
            then ()
            else
              raise
                (Deny ("control-flow", "illegitimate indirect call on the stack"))
          | Some (Metadata.Conv_direct _) ->
            if
              Cfg_analysis.is_valid_caller t.meta.cfg ~callee:inner.fv_func
                ~caller_site
            then walk rest
            else
              raise
                (Deny
                   ( "control-flow",
                     Printf.sprintf "%s is not a valid caller of %s"
                       (Sil.Loc.to_string caller_site) inner.fv_func ))
          | None ->
            raise (Deny ("control-flow", "unwound return site is not a callsite")))))
  in
  walk frames

(* ------------------------------------------------------------------ *)
(* Argument-Integrity context (§7.4)                                   *)

let deny_ai detail = raise (Deny ("argument-integrity", detail))

let corrupted (site : site_rec) pos legit actual =
  deny_ai
    (Printf.sprintf "argument %d of %s corrupted (expected %Ld, got %Ld)" pos
       site.st_callee legit actual)

let check_extended (t : t) (tracer : Ptrace.t) ~(ptr : int64) =
  (* Verify pointee contents word by word against the shadow.  Rodata is
     write-protected (DEP), so contents there are trusted after a bounded
     cost-only scan. *)
  if in_rodata ptr then ignore (Ptrace.read_string tracer ptr)
  else begin
    (* One batched remote read of the pointee region, then compare each
       word up to the NUL terminator against its shadow. *)
    let words = Ptrace.read_block tracer ptr Arg_rules.max_extended_words in
    let i = ref 0 in
    while !i < Array.length words && not (Int64.equal words.(!i) 0L) do
      let j = shadow_find t (Machine.Memory.addr_add ptr !i) in
      if j < 0 then deny_ai "extended argument contents untraced";
      if not (Int64.equal (shadow_value t j) words.(!i)) then
        deny_ai "extended argument contents corrupted";
      incr i
    done
  end

(* The index of the first per-caller constant admissible for
   [caller]'s callsite, or -1.  An unknown or unlisted caller is not a
   violation by itself: the slot falls back to the dynamic path (and
   the CF context has already judged the stack). *)
let ctx_index ctx (caller : site_rec) =
  if caller == no_site then -1
  else begin
    let c = ref (-1) and k = ref 0 in
    while !c < 0 && !k < Array.length ctx do
      if fst ctx.(!k) = caller.st_id then c := !k;
      incr k
    done;
    !c
  end

(* Verify the bound arguments of the call [frame] has in flight at
   [site]; [caller] is the caller frame's callsite record. *)
let check_callsite_args (t : t) (tracer : Ptrace.t) (site : site_rec)
    (frame : Ptrace.frame_view) ~(caller : site_rec) =
  for k = 0 to Array.length site.st_args - 1 do
    let { ar_pos = pos; ar_check; ar_pointee } = site.st_args.(k) in
    charge_check t;
    let actual = if pos < Array.length frame.fv_args then frame.fv_args.(pos) else 0L in
    (match ar_check with
    | Check_const c ->
      if not (Int64.equal actual c) then
        deny_ai
          (Printf.sprintf "constant argument %d of %s corrupted" pos site.st_callee)
    | Check_pre legit ->
      (* Pre-resolved slot: the compiler proved the argument constant
         along all paths, so the static constant *is* the legitimate
         value — compare directly, skipping the binding-table and
         shadow probes (two priced lookups saved per slot). *)
      t.pre_resolved_hits <- t.pre_resolved_hits + 1;
      note_tier t Obs.Event.Tier_pre_resolved;
      if not (Int64.equal legit actual) then corrupted site pos legit actual
    | Check_mem m ->
      let c = ctx_index m.ctx caller in
      if c >= 0 then begin
        (* 1-context pre-resolved slot: constant per caller, matched
           against the caller frame's callsite — still no probes. *)
        t.ctx_hits <- t.ctx_hits + 1;
        note_tier t Obs.Event.Tier_ctx;
        let legit = snd m.ctx.(c) in
        if not (Int64.equal legit actual) then corrupted site pos legit actual
      end
      else begin
        (match m.rank with
        | Some true -> t.ai_tainted <- t.ai_tainted + 1
        | Some false -> t.ai_untainted <- t.ai_untainted + 1
        | None -> ());
        let j =
          match m.cheap with
          | Some recipe ->
            (* Untainted slot: the bound object's address is statically
               known, so the expected value is one shadow probe away —
               the binding-table lookup is skipped.  Denial semantics
               are identical to the full path: a missing shadow entry
               still means untraced, a mismatch still means corrupted. *)
            note_tier t Obs.Event.Tier_cheap;
            shadow_find t
              (match recipe with
              | Metadata.Cheap_frame off -> Machine.Memory.addr_add frame.fv_base off
              | Metadata.Cheap_global g -> g)
          | None ->
            (* The full two-lookup path: binding table, then shadow. *)
            note_tier t Obs.Event.Tier_full;
            let b = shadow_find t m.binding in
            if b < 0 then
              deny_ai
                (Printf.sprintf "argument %d of %s was never bound" pos site.st_callee);
            shadow_find t (shadow_value t b)
        in
        if j < 0 then
          deny_ai (Printf.sprintf "argument %d of %s is untraced" pos site.st_callee);
        let legit = shadow_value t j in
        if not (Int64.equal legit actual) then corrupted site pos legit actual
      end);
    (* Direct vs extended handling is recovered from the syscall
       identity (§6.3.2), not from instrumentation. *)
    match ar_pointee with
    | Value_only -> ()
    | Sockaddr_read ->
      (* Specialised sockaddr verification: one fixed-size read. *)
      if not (Int64.equal actual 0L) then ignore (Ptrace.read_block tracer actual 2)
    | Extended_scan ->
      if not (Int64.equal actual 0L) then check_extended t tracer ~ptr:actual
  done

(* Sweep one frame's sensitive locals against the prefetched span.  A
   span that does not cover a slot (a corrupt or foreign recorded
   snapshot) fails closed. *)
let check_slots (t : t) (fn : func_rec) (frame : Ptrace.frame_view)
    (slots : Ptrace.frame_slots) =
  for k = 0 to Array.length fn.fn_slots - 1 do
    let off = fn.fn_slots.(k) in
    charge_check t;
    let i = off - slots.sl_lo in
    if i < 0 || i >= Array.length slots.sl_span then
      deny_ai
        (Printf.sprintf "sensitive variable at %s+%d is outside the fetched slot span"
           frame.fv_func off);
    let actual = slots.sl_span.(i) in
    let j = shadow_find t (Machine.Memory.addr_add frame.fv_base off) in
    if j >= 0 && not (Int64.equal (shadow_value t j) actual) then
      deny_ai
        (Printf.sprintf "sensitive variable at %s+%d corrupted" frame.fv_func off)
  done

let no_slots = { Ptrace.sl_lo = 0; sl_span = [||] }

let rec slots_at base = function
  | [] -> no_slots
  | ((b, s) : int64 * Ptrace.frame_slots) :: rest ->
    if Int64.equal b base then s else slots_at base rest

(* Per frame, innermost first: verify the bound arguments of the call
   the frame has in flight, then sweep the frame's sensitive locals.
   The slot spans were prefetched by the snapshot's coalesced read; the
   records were resolved once for the trap (frame [i + 1] is frame
   [i]'s caller, whose callsite context pre-resolution matches). *)
let rec check_frames (t : t) tracer (snap : Ptrace.snapshot) ~depth i = function
  | [] -> ()
  | (frame : Ptrace.frame_view) :: rest ->
    let d = t.dec in
    let site = d.fr_sites.(i) in
    if site != no_site then
      check_callsite_args t tracer site frame
        ~caller:(if i + 1 < depth then d.fr_sites.(i + 1) else no_site);
    let fn = d.fr_funcs.(i) in
    if Array.length fn.fn_slots > 0 then begin
      let slots = slots_at frame.fv_base snap.sn_slots in
      if slots != no_slots then check_slots t fn frame slots
    end;
    check_frames t tracer snap ~depth (i + 1) rest

let check_argument_integrity (t : t) (tracer : Ptrace.t) (regs : Ptrace.regs)
    (snap : Ptrace.snapshot) ~depth =
  (* The trapping callsite itself must carry argument metadata *for the
     trapped syscall*: a sensitive syscall invoked from a callsite the
     compiler never bound for it has, by definition, untraced arguments
     (§10.2). *)
  let site = find_site t.dec regs.rip in
  (match site.st_sysno with
  | Some nr when nr = regs.sysno ->
    (* Dead-site record: the conditional-constant analysis proved no
       benign execution reaches this callsite, so *any* trap here is an
       attack — denied before a single probe is spent. *)
    if site.st_dead then
      deny_ai "syscall invoked at a callsite no benign execution reaches"
  | Some _ | None -> deny_ai "syscall arguments are untraced at this callsite");
  check_frames t tracer snap ~depth 0 snap.sn_frames;
  (* Whole-trap sweep of sensitive globals (and global struct fields),
     one batched read per region. *)
  let globals = t.dec.globals in
  for g = 0 to Array.length globals - 1 do
    let gl = globals.(g) in
    let span = Ptrace.read_block tracer gl.gl_addr (Array.length gl.gl_words) in
    for i = 0 to Array.length span - 1 do
      charge_check t;
      let j = shadow_find t gl.gl_words.(i) in
      if j >= 0 && not (Int64.equal (shadow_value t j) span.(i)) then
        deny_ai (Printf.sprintf "sensitive global %s corrupted" gl.gl_name)
    done
  done

(* ------------------------------------------------------------------ *)
(* Trap entry point                                                    *)

(* The trap's coalesced snapshot.  A live snapshot asks for each
   frame's slot span innermost first, which resolves the frame's
   function record for {!resolve_frames} to reuse. *)
let snapshot (t : t) (tracer : Ptrace.t) =
  t.dec.fr_seen <- 0;
  t.source.ts_snapshot tracer ~slot_span:t.dec.span_query

(* The verdict-cache key over the [depth] frames just resolved. *)
let resolved_key (t : t) ~sysno ~rip ~depth =
  Verdict_cache.key_hashed ~sysno ~rip ~hashes:t.dec.fr_hashes ~tokens:t.dec.fr_tokens
    ~len:depth

let cache_key (t : t) ~sysno ~rip frames =
  resolved_key t ~sysno ~rip ~depth:(resolve_frames t.dec 0 frames)

let slot_span (t : t) name = (find_func t.dec name).fn_span

(* ------------------------------------------------------------------ *)
(* Flight-recorder hooks.  Observation reads the machine's cycle clock
   but never charges it: a run's cycle totals and verdicts are
   identical with the recorder on or off.  With no recorder (or an
   un-armed one) each hook is an option match / counter bump. *)

type trap_obs = {
  ob_seq : int;
  ob_start : int;           (* machine cycles at trap entry *)
  ob_calls0 : int;          (* tracer counters at trap entry ... *)
  ob_words0 : int;
  ob_probes0 : int;         (* ... and shadow probes, for the deltas *)
  mutable ob_spans : Obs.Event.span list;  (* reverse execution order *)
  mutable ob_cache : bool option;
  mutable ob_depth : int;
  mutable ob_input : Obs.Event.input option;
}

(* Capture the monitor's snapshot inputs into the event, so an audit
   record carries everything needed to re-derive its verdict offline.
   Arrays are copied: the machine mutates its register file in place. *)
let input_of (regs : Ptrace.regs) (snap : Ptrace.snapshot option) : Obs.Event.input
    =
  let frames, slots =
    match snap with
    | None -> ([], [])
    | Some snap ->
      ( List.map
          (fun (fv : Ptrace.frame_view) ->
            {
              Obs.Event.f_func = fv.fv_func;
              f_callsite = fv.fv_callsite;
              f_args = Array.copy fv.fv_args;
              f_ret = fv.fv_ret_token;
              f_base = fv.fv_base;
            })
          snap.sn_frames,
        List.map
          (fun ((base, s) : int64 * Ptrace.frame_slots) ->
            { Obs.Event.sr_base = base; sr_lo = s.sl_lo;
              sr_span = Array.copy s.sl_span })
          snap.sn_slots )
  in
  { Obs.Event.in_args = Array.copy regs.args; in_frames = frames;
    in_slots = slots }

let cycles_now (t : t) = t.machine.stats.cycles

let obs_begin (t : t) (tracer : Ptrace.t) : trap_obs option =
  match t.recorder with
  | Some r when Obs.Recorder.armed r ->
    Some
      {
        ob_seq = Obs.Recorder.next_seq r;
        ob_start = cycles_now t;
        ob_calls0 = tracer.calls_made;
        ob_words0 = tracer.words_read;
        ob_probes0 = Shadow_memory.probe_count t.runtime.shadow;
        ob_spans = [];
        ob_cache = None;
        ob_depth = 0;
        ob_input = None;
      }
  | _ -> None

(** Run one context check as an observed phase span. *)
let obs_span (t : t) (obs : trap_obs option) phase f =
  match obs with
  | None -> f ()
  | Some ob ->
    let t0 = cycles_now t in
    let push outcome =
      ob.ob_spans <-
        { Obs.Event.sp_phase = phase; sp_outcome = outcome; sp_start = t0;
          sp_dur = cycles_now t - t0 }
        :: ob.ob_spans
    in
    (try f () with Deny _ as e -> push Obs.Event.Failed; raise e);
    push Obs.Event.Passed

(** Mark a phase the verdict cache vouched for (zero-duration span). *)
let obs_cached (t : t) (obs : trap_obs option) phase =
  match obs with
  | None -> ()
  | Some ob ->
    ob.ob_spans <-
      { Obs.Event.sp_phase = phase; sp_outcome = Obs.Event.Cached;
        sp_start = cycles_now t; sp_dur = 0 }
      :: ob.ob_spans

let obs_finish (t : t) (tracer : Ptrace.t) (obs : trap_obs option) ~(rip : int64)
    ~kind ~(tier : Obs.Event.tier option) (verdict : Obs.Event.verdict) =
  match t.recorder with
  | None -> ()
  | Some r -> (
    match obs with
    | None ->
      (* Un-armed recorder: the hook reduces to counter bumps. *)
      Obs.Recorder.count_trap r
        ~denied:(match verdict with Obs.Event.Denied _ -> true | Obs.Event.Allowed -> false)
    | Some ob ->
      Obs.Recorder.record_trap r
        {
          Obs.Event.ev_seq = ob.ob_seq;
          ev_kind = kind;
          ev_sysno = tracer.cur_sysno;
          ev_sysname = Syscalls.name tracer.cur_sysno;
          ev_rip = rip;
          ev_start = ob.ob_start;
          ev_dur = cycles_now t - ob.ob_start;
          ev_verdict = verdict;
          ev_spans = List.rev ob.ob_spans;
          ev_cache = ob.ob_cache;
          ev_depth = ob.ob_depth;
          ev_ptrace_calls = tracer.calls_made - ob.ob_calls0;
          ev_ptrace_words = tracer.words_read - ob.ob_words0;
          ev_shadow_probes = Shadow_memory.probe_count t.runtime.shadow - ob.ob_probes0;
          ev_shard = 0;
          ev_tracee = 0;
          ev_tier = tier;
          ev_input = ob.ob_input;
        })

(* The trap's settled tier: the deepest contribution noted while the
   checks ran.  A trap that engaged none of the tiered machinery (e.g.
   the CT-only configuration, or a stack with no AI-bound slots) is
   conservatively [Tier_full] — nothing cheaper vouched for it. *)
let settle_tier (t : t) : Obs.Event.tier =
  let tier =
    match Obs.Event.tier_of_rank t.cur_tier with
    | Some tier -> tier
    | None -> Obs.Event.Tier_full
  in
  t.tier_counts.(Obs.Event.tier_rank tier) <-
    t.tier_counts.(Obs.Event.tier_rank tier) + 1;
  tier

let full_check (t : t) (tracer : Ptrace.t) : Process.verdict =
  t.traps_checked <- t.traps_checked + 1;
  t.cur_tier <- -1;
  let obs = obs_begin t tracer in
  let regs = t.source.ts_regs tracer in
  try
    if not (t.config.contexts.cf || t.config.contexts.ai) then begin
      (* CT needs no process state beyond the registers. *)
      (match obs with Some ob -> ob.ob_input <- Some (input_of regs None) | None -> ());
      if t.config.contexts.ct then
        obs_span t obs Obs.Event.Ct (fun () -> check_call_type t regs)
    end
    else begin
      let snap = snapshot t tracer in
      (match obs with
      | Some ob -> ob.ob_input <- Some (input_of regs (Some snap))
      | None -> ());
      let frames = snap.sn_frames in
      let depth = resolve_frames t.dec 0 frames in
      t.depth_total <- t.depth_total + depth;
      t.depth_samples <- t.depth_samples + 1;
      if depth < t.depth_min then t.depth_min <- depth;
      if depth > t.depth_max then t.depth_max <- depth;
      (match obs with Some ob -> ob.ob_depth <- depth | None -> ());
      (* Trap fast path: the cache only ever short-circuits CT and CF
         together, and only records keys that passed both — so it is
         enabled exactly when both are enforced.  AI always re-runs. *)
      let use_cache =
        t.config.trap_cache && t.config.contexts.ct && t.config.contexts.cf
      in
      let cache_key =
        if use_cache then begin
          Machine.charge t.machine t.machine.config.cost.cache_probe;
          Some (resolved_key t ~sysno:regs.sysno ~rip:regs.rip ~depth)
        end
        else None
      in
      let hit =
        match cache_key with Some k -> Verdict_cache.probe t.cache k | None -> false
      in
      (match obs with
      | Some ob when use_cache -> ob.ob_cache <- Some hit
      | _ -> ());
      if hit then begin
        note_tier t Obs.Event.Tier_cached;
        obs_cached t obs Obs.Event.Ct;
        obs_cached t obs Obs.Event.Cf
      end
      else begin
        if t.config.contexts.ct then
          obs_span t obs Obs.Event.Ct (fun () -> check_call_type t regs);
        if t.config.contexts.cf then
          obs_span t obs Obs.Event.Cf (fun () ->
              check_control_flow t tracer regs frames);
        (* Only reached when CT and CF both passed. *)
        match cache_key with
        | Some k -> Verdict_cache.record t.cache k
        | None -> ()
      end;
      if t.config.contexts.ai then
        obs_span t obs Obs.Event.Ai (fun () ->
            check_argument_integrity t tracer regs snap ~depth)
    end;
    obs_finish t tracer obs ~rip:regs.rip ~kind:Obs.Event.Trap_check
      ~tier:(Some (settle_tier t)) Obs.Event.Allowed;
    Process.Continue
  with Deny (context, detail) ->
    t.denials <- { d_sysno = tracer.cur_sysno; d_context = context; d_detail = detail } :: t.denials;
    obs_finish t tracer obs ~rip:regs.rip ~kind:Obs.Event.Trap_check
      ~tier:(Some (settle_tier t))
      (Obs.Event.Denied { d_context = context; d_detail = detail });
    Process.Deny { context; detail }

let fetch_only (t : t) (tracer : Ptrace.t) : Process.verdict =
  t.traps_checked <- t.traps_checked + 1;
  let obs = obs_begin t tracer in
  let regs = t.source.ts_regs tracer in
  let snap = snapshot t tracer in
  (match obs with
  | Some ob ->
    ob.ob_depth <- List.length snap.sn_frames;
    ob.ob_input <- Some (input_of regs (Some snap))
  | None -> ());
  obs_finish t tracer obs ~rip:regs.rip ~kind:Obs.Event.Fetch_only ~tier:None
    Obs.Event.Allowed;
  Process.Continue

(* ------------------------------------------------------------------ *)
(* Deployment                                                          *)

(** The seccomp filter §7.1 describes: ALLOW non-sensitive calls used by
    the program, KILL not-callable calls (sensitive or not, §11.3),
    TRACE directly/indirectly-callable sensitive calls.  Unknown syscall
    numbers default to KILL. *)
let build_filter (t : t) : Kernel.Seccomp.filter =
  (* Rebuilding the filter invalidates every cached CT+CF verdict: the
     callable set (and hence what a trap means) may have changed. *)
  Verdict_cache.bump_epoch t.cache;
  let filter = Kernel.Seccomp.create ~default:Kernel.Seccomp.Kill () in
  List.iter
    (fun (_, nr, _) ->
      let ct = Calltype.call_type t.meta.calltype nr in
      let callable = ct.directly || ct.indirectly in
      let action =
        if not callable then
          (* Not-callable enforcement is the Call-Type context's seccomp
             leg; with CT disabled (context-attribution runs), deliver a
             trap instead so the other contexts get to judge. *)
          if t.config.contexts.ct then Kernel.Seccomp.Kill else Kernel.Seccomp.Trace
        else if Syscalls.is_sensitive nr then Kernel.Seccomp.Trace
        else if Syscalls.is_filesystem nr then
          match t.config.fs_mode with
          | Fs_off | Fs_hook_only -> Kernel.Seccomp.Allow
          | Fs_fetch_only | Fs_full -> Kernel.Seccomp.Trace
        else Kernel.Seccomp.Allow
      in
      Kernel.Seccomp.set_rule filter nr action)
    Syscalls.table;
  filter

let hook (t : t) (proc : Process.t) ~sysno ~args:_ : Process.verdict =
  if Syscalls.is_filesystem sysno && not (Syscalls.is_sensitive sysno) then
    match t.config.fs_mode with
    | Fs_fetch_only -> fetch_only t proc.tracer
    | Fs_full -> full_check t proc.tracer
    | Fs_off | Fs_hook_only -> Process.Continue
  else full_check t proc.tracer

(** Mirror the legacy counters of the whole enforcement pipeline into a
    metrics registry as sampled probes.  The original accessors stay
    authoritative — the registry reads them at snapshot time, so the
    two views can never disagree (the test suite checks the emitted
    trace against [calls_made], {!cache_stats} and the shadow probe
    statistics). *)
let register_probes (t : t) (tracer : Ptrace.t) (reg : Obs.Metrics.t) =
  let p name f = Obs.Metrics.register_probe reg name f in
  let fi f = fun () -> float_of_int (f ()) in
  p "ptrace.calls_made" (fi (fun () -> tracer.calls_made));
  p "ptrace.words_read" (fi (fun () -> tracer.words_read));
  p "ptrace.getregs" (fi (fun () -> tracer.getregs_count));
  p "ptrace.frames_walked" (fi (fun () -> tracer.frames_walked));
  p "cache.hits" (fi (fun () -> Verdict_cache.hits t.cache));
  p "cache.misses" (fi (fun () -> Verdict_cache.misses t.cache));
  p "cache.records" (fi (fun () -> Verdict_cache.records t.cache));
  p "cache.epoch" (fi (fun () -> Verdict_cache.epoch t.cache));
  p "cache.hit_rate" (fun () -> Verdict_cache.hit_rate t.cache);
  let shadow = t.runtime.shadow in
  p "shadow.lookups" (fi (fun () -> Shadow_memory.lookup_count shadow));
  p "shadow.lookup_probes" (fi (fun () -> Shadow_memory.probe_count shadow));
  p "shadow.mean_probe_length" (fun () -> Shadow_memory.mean_probe_length shadow);
  p "shadow.inserts" (fi (fun () -> Shadow_memory.insert_count shadow));
  p "shadow.insert_probes" (fi (fun () -> Shadow_memory.insert_probe_count shadow));
  p "shadow.mean_insert_probe_length" (fun () ->
      Shadow_memory.mean_insert_probe_length shadow);
  p "shadow.entries" (fi (fun () -> Shadow_memory.entry_count shadow));
  let pf f = fi (fun () -> match t.prefilter with Some fa -> f fa | None -> 0) in
  p "prefilter.resolved" (pf (fun fa -> fa.Kernel.Seccomp.fa_resolved));
  p "prefilter.fallthroughs" (pf (fun fa -> fa.Kernel.Seccomp.fa_fallthroughs));
  p "prefilter.kills" (pf (fun fa -> fa.Kernel.Seccomp.fa_kills));
  p "prefilter.nodes" (pf Kernel.Seccomp.flow_node_count);
  p "prefilter.edges" (pf Kernel.Seccomp.flow_edge_count);
  p "monitor.traps_checked" (fi (fun () -> t.traps_checked));
  p "monitor.preresolved_hits" (fi (fun () -> t.pre_resolved_hits));
  p "monitor.preresolved_ctx_hits" (fi (fun () -> t.ctx_hits));
  p "monitor.ai.tainted" (fi (fun () -> t.ai_tainted));
  p "monitor.ai.untainted" (fi (fun () -> t.ai_untainted));
  p "monitor.denials" (fi (fun () -> List.length t.denials));
  p "monitor.init_cycles" (fi (fun () -> t.init_cycles));
  p "machine.cycles" (fi (fun () -> t.machine.stats.cycles));
  p "machine.instrs" (fi (fun () -> t.machine.stats.instrs));
  p "machine.syscalls" (fi (fun () -> t.machine.stats.syscalls))

(** Attach the monitor to a booted process: install the seccomp filter
    and the TRACE hook; with a recorder present, also mirror the
    pipeline's legacy counters into its registry. *)
let attach (t : t) (proc : Process.t) =
  proc.filter <- Some (build_filter t);
  proc.tracer_hook <- Some (fun proc ~sysno ~args -> hook t proc ~sysno ~args);
  match t.recorder with
  | Some r -> register_probes t proc.tracer (Obs.Recorder.metrics r)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The tiered entry point: the syscall-flow pre-filter                  *)

(** Deploy-time classification of the AI-checked argument positions of
    the callsite at [addr], invoking [sysno].  [`Pin c]: the legitimate
    value is the statically-known constant [c] ([Spec_const] entries
    and pre-resolved [Spec_mem] slots) and, for pointer-kind positions,
    it is NULL or aims at write-protected rodata — so a register
    compare loses nothing against the full check.  [`Scalar]: a
    dynamic register-visible value (the flowgraph's value analysis
    decides whether it is checkable or opaque).  [`Pointer]: a checked
    pointer position the seccomp stage can never dereference.  [None]:
    the callsite carries no metadata for this syscall, so the
    pre-filter must not resolve there. *)
let prefilter_site_info (t : t) ~(addr : int64) ~(sysno : int option) :
    (int * [ `Pin of int64 | `Scalar | `Pointer ]) list option =
  match (Hashtbl.find_opt t.meta.cs_by_addr addr, sysno) with
  | None, _ | _, None -> None
  | Some entry, Some nr ->
    if entry.Metadata.e_sysno <> Some nr then None
    else
      Some
        (List.map
           (fun ((pos, spec) : int * Metadata.arg_spec) ->
             let pointer =
               match Arg_rules.kind ~sysno:nr ~pos with
               | Arg_rules.Direct -> false
               | Arg_rules.Sockaddr | Arg_rules.Extended -> true
             in
             let pin =
               match spec with
               | Metadata.Spec_const c -> Some c
               | Metadata.Spec_mem -> List.assoc_opt pos entry.e_pre
             in
             match pin with
             | Some c when (not pointer) || Int64.equal c 0L || in_rodata c ->
               (pos, `Pin c)
             | Some _ | None -> (pos, if pointer then `Pointer else `Scalar))
           entry.e_specs)

(** Install a deployed automaton: remember it, hand it to the process's
    seccomp filter, and wire the flight-recorder instant so resolved
    calls stay visible in traces.  Requires {!attach} first. *)
let install_prefilter (t : t) (proc : Process.t)
    (fa : Kernel.Seccomp.flow_automaton) =
  (match proc.filter with
  | Some filter -> Kernel.Seccomp.set_flow filter (Some fa)
  | None ->
    invalid_arg "Monitor.install_prefilter: process has no filter (attach first)");
  t.prefilter <- Some fa;
  fa.Kernel.Seccomp.fa_on_resolve <-
    Some
      (fun ~sysno:_ ~rip:_ ->
        match t.recorder with
        | Some r when Obs.Recorder.armed r ->
          Obs.Recorder.record_instant r ~name:"prefilter.resolve" ~at:(cycles_now t)
        | Some _ | None -> ())

let prefilter (t : t) = t.prefilter

(** Per-tier resolution counters:
    (resolved at pre-filter, fell through to the full path,
     standalone-mode kills). *)
let prefilter_stats (t : t) =
  match t.prefilter with
  | Some fa -> Kernel.Seccomp.flow_stats fa
  | None -> (0, 0, 0)

let prefilter_resolved (t : t) =
  match t.prefilter with Some fa -> fa.Kernel.Seccomp.fa_resolved | None -> 0

let denials (t : t) = List.rev t.denials

(** Verdict-cache statistics of the trap fast path:
    (hits, misses, hit rate). *)
let cache_stats (t : t) =
  (Verdict_cache.hits t.cache, Verdict_cache.misses t.cache,
   Verdict_cache.hit_rate t.cache)

(** AI slots verified against a pre-resolved static constant (no shadow
    probe charged). *)
let pre_resolved_hits (t : t) = t.pre_resolved_hits

(** AI slots verified against a per-caller (1-context) constant. *)
let ctx_resolved_hits (t : t) = t.ctx_hits

(** Ranked-slot verification counts: (tainted — full path, untainted —
    cheap-path eligible). *)
let ai_rank_stats (t : t) = (t.ai_tainted, t.ai_untainted)

(** Per-tier trap totals, indexed by {!Obs.Event.tier_rank} (a copy;
    the prefilter slot is always 0 — resolved calls never trap). *)
let tier_counts (t : t) = Array.copy t.tier_counts

(** §9.2 call-depth statistics over all verified traps:
    (min, mean, max); [None] before the first stack walk. *)
let depth_stats (t : t) =
  if t.depth_samples = 0 then None
  else
    Some
      ( t.depth_min,
        float_of_int t.depth_total /. float_of_int t.depth_samples,
        t.depth_max )
