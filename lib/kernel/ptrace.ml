(* The tracer interface the BASTION monitor uses to inspect a stopped
   tracee (PTRACE_GETREGS + process_vm_readv in the paper).  Every
   operation charges its modelled cycle cost to the tracee's clock —
   this is the cost that dominates Table 7.

   Because each process_vm_readv call carries a fixed per-call price on
   top of the per-word transfer cost, the monitor's fast path reads the
   tracee with [snapshot]: the whole stack span and the union of the
   frames' sensitive-slot spans in one or two coalesced calls, instead
   of one call per frame plus one per region. *)

type regs = { rip : int64; sysno : int; args : int64 array }

type frame_view = {
  fv_func : string;
      (** function the frame is executing (what a real unwinder infers
          from the frame's code addresses) *)
  fv_callsite : int64;
      (** code address of the call this frame has in flight *)
  fv_args : int64 array;
      (** argument registers as spilled at that callsite *)
  fv_ret_token : int64 option;
      (** memory-resident return address (None for the entry frame) —
          read back from the corruptible stack *)
  fv_base : int64;
      (** frame base address (for locating local-variable slots) *)
}

type frame_slots = {
  sl_lo : int;            (** word offset of the span's first slot *)
  sl_span : int64 array;  (** slot words [lo .. lo + length - 1] *)
}

type snapshot = {
  sn_frames : frame_view list;   (** unwound frames, innermost first *)
  sn_slots : (int64 * frame_slots) list;
      (** per frame base, the frame's sensitive-slot span *)
  sn_calls : int;  (** process_vm_readv calls this snapshot cost (1-2) *)
}

type t = {
  machine : Machine.t;
  mutable cur_sysno : int;   (** set by the kernel before a TRACE stop *)
  mutable getregs_count : int;
  mutable words_read : int;
  mutable frames_walked : int;
  mutable calls_made : int;  (** process_vm_readv calls issued *)
}

let create machine =
  { machine; cur_sysno = -1; getregs_count = 0; words_read = 0; frames_walked = 0;
    calls_made = 0 }

let cost (t : t) = t.machine.config.cost

let getregs (t : t) : regs =
  t.getregs_count <- t.getregs_count + 1;
  Machine.charge t.machine (cost t).ptrace_getregs;
  { rip = t.machine.trap_rip; sysno = t.cur_sysno; args = t.machine.abi_regs }

(** One remote read: a full process_vm_readv call for a single word. *)
let read_word (t : t) addr =
  t.calls_made <- t.calls_made + 1;
  t.words_read <- t.words_read + 1;
  Machine.charge t.machine ((cost t).ptrace_call + (cost t).ptrace_read_word);
  Machine.peek t.machine addr

(** Batched remote read of [n] consecutive words: one call, [n] words of
    transfer.  Used wherever the monitor can read a region at once. *)
let read_block (t : t) addr n =
  t.calls_made <- t.calls_made + 1;
  t.words_read <- t.words_read + n;
  Machine.charge t.machine ((cost t).ptrace_call + (n * (cost t).ptrace_read_word));
  Machine.Memory.read_block t.machine.mem addr n

(** Read a NUL-terminated string (one char per word) from the tracee. *)
let read_string ?(max_len = 4096) (t : t) addr =
  let s = Machine.Memory.read_string ~max_len t.machine.mem addr in
  let words = String.length s + 1 in
  t.calls_made <- t.calls_made + 1;
  t.words_read <- t.words_read + words;
  Machine.charge t.machine ((cost t).ptrace_call + ((cost t).ptrace_read_word * words));
  s

let view_of_frame (t : t) (frame : Machine.frame) : frame_view =
  {
    fv_func = Machine.frame_func frame;
    fv_callsite = frame.in_flight_callsite;
    fv_args = frame.in_flight_args;
    fv_ret_token = Machine.read_ret_addr t.machine frame;
    fv_base = frame.frame_base;
  }

(** Unwind the tracee's stack, innermost frame first.  Each frame costs
    one remote read of the frame record (saved frame pointer + return
    address), as a naive frame-pointer unwind does.  The monitor's fast
    path uses {!snapshot} instead. *)
let stack_trace (t : t) : frame_view list =
  List.map
    (fun (frame : Machine.frame) ->
      t.frames_walked <- t.frames_walked + 1;
      t.calls_made <- t.calls_made + 1;
      t.words_read <- t.words_read + 2;
      Machine.charge t.machine ((cost t).ptrace_call + (2 * (cost t).ptrace_read_word));
      view_of_frame t frame)
    (Machine.frames t.machine)

(** Coalesced snapshot of the tracee's stack: one batched call for the
    whole stack span (frame records, spilled in-flight arguments,
    return tokens) and, when [slot_span] names any sensitive-slot
    spans, a second batched call for their union — O(1-2) calls total
    where {!stack_trace} plus per-region reads cost O(frames +
    regions).  [slot_span f] gives the (lo, hi) word-offset range of
    function [f]'s sensitive local slots, if any; it is asked once per
    frame, innermost first, so a caller may resolve its per-frame
    records as it answers. *)
let snapshot (t : t) ~(slot_span : string -> (int * int) option) : snapshot =
  let mframes = Machine.frames t.machine in
  let nframes = List.length mframes in
  (* Call 1: the contiguous stack span, two record words per frame. *)
  let frame_words = 2 * nframes in
  t.calls_made <- t.calls_made + 1;
  t.frames_walked <- t.frames_walked + nframes;
  t.words_read <- t.words_read + frame_words;
  Machine.charge t.machine
    ((cost t).ptrace_call + (frame_words * (cost t).ptrace_read_word));
  let sn_frames = List.map (view_of_frame t) mframes in
  (* Call 2: the union of the frames' sensitive-slot spans, gathered in
     one scatter-read (process_vm_readv takes an iovec list, so
     disjoint per-frame spans still cost a single call). *)
  let sn_slots =
    List.filter_map
      (fun (frame : Machine.frame) ->
        match slot_span (Machine.frame_func frame) with
        | None -> None
        | Some (lo, hi) ->
          let n = hi - lo + 1 in
          let span =
            Machine.Memory.read_block t.machine.mem
              (Machine.Memory.addr_add frame.frame_base lo)
              n
          in
          Some (frame.frame_base, { sl_lo = lo; sl_span = span }))
      mframes
  in
  let slot_words =
    List.fold_left (fun acc (_, s) -> acc + Array.length s.sl_span) 0 sn_slots
  in
  let sn_calls =
    if slot_words = 0 then 1
    else begin
      t.calls_made <- t.calls_made + 1;
      t.words_read <- t.words_read + slot_words;
      Machine.charge t.machine
        ((cost t).ptrace_call + (slot_words * (cost t).ptrace_read_word));
      2
    end
  in
  { sn_frames; sn_slots; sn_calls }

(* ------------------------------------------------------------------ *)
(* Replay injection.  The replay engine re-drives the monitor against a
   *recorded* trap stream: the register file and stack snapshot come
   from the trace, not from the (replayed) tracee.  Fidelity demands
   the injected fetches charge exactly what the live reads would for
   the same shape, so a faithful trace replays to bit-identical cycle
   totals; the counters move the same way for the same reason. *)

(** Charge and count exactly what {!getregs} would, then hand back the
    recorded register file instead of reading the tracee. *)
let inject_regs (t : t) (regs : regs) : regs =
  t.getregs_count <- t.getregs_count + 1;
  Machine.charge t.machine (cost t).ptrace_getregs;
  regs

(** Charge and count exactly what {!snapshot} would for a stack of this
    shape (one batched call for the frame span, one more when any
    sensitive-slot words were read), then hand back the recorded
    snapshot.  [sn_calls] is recomputed from the shape, so a corrupted
    recorded value cannot skew the accounting. *)
let inject_snapshot (t : t) (snap : snapshot) : snapshot =
  let nframes = List.length snap.sn_frames in
  let frame_words = 2 * nframes in
  t.calls_made <- t.calls_made + 1;
  t.frames_walked <- t.frames_walked + nframes;
  t.words_read <- t.words_read + frame_words;
  Machine.charge t.machine
    ((cost t).ptrace_call + (frame_words * (cost t).ptrace_read_word));
  let slot_words =
    List.fold_left (fun acc (_, s) -> acc + Array.length s.sl_span) 0 snap.sn_slots
  in
  let sn_calls =
    if slot_words = 0 then 1
    else begin
      t.calls_made <- t.calls_made + 1;
      t.words_read <- t.words_read + slot_words;
      Machine.charge t.machine
        ((cost t).ptrace_call + (slot_words * (cost t).ptrace_read_word));
      2
    end
  in
  { snap with sn_calls }

(** Map a memory-resident return token back to the callsite (the call
    instruction immediately preceding the resume point), as an unwinder
    maps return addresses to call instructions.  Returns [None] if the
    token does not point into code or points at a block entry (which no
    legitimate call produces). *)
let callsite_of_token (t : t) token : Sil.Loc.t option =
  match Machine.Layout.point_of_addr t.machine.layout token with
  | Some (Machine.Layout.Instr_at loc) ->
    if loc.index = 0 then None else Some { loc with index = loc.index - 1 }
  | Some (Machine.Layout.Term_of (func, block)) ->
    let f = Sil.Prog.find_func t.machine.prog func in
    let b = Sil.Func.find_block f block in
    let n = Array.length b.instrs in
    if n = 0 then None else Some (Sil.Loc.make func block (n - 1))
  | None -> None
