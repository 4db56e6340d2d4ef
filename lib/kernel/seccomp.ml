(* A seccomp-BPF-style system-call filter.

   The BASTION monitor installs a filter that returns
   SECCOMP_RET_ALLOW for non-sensitive calls, SECCOMP_RET_KILL for
   not-callable calls and SECCOMP_RET_TRACE for directly/indirectly
   callable sensitive calls (§7.1).  The plain system-call-filtering
   baseline uses the same engine with an allowlist policy. *)

module Addr_tbl = Machine.Memory.Addr_tbl

type action = Allow | Kill | Trace

let action_name = function Allow -> "ALLOW" | Kill -> "KILL" | Trace -> "TRACE"

(* ------------------------------------------------------------------ *)
(* The syscall-flow pre-filter (SFIP/SFP-style): a statically-extracted
   automaton over sensitive-syscall *sequences* and *origins*, evaluated
   at seccomp stage, before any trap is delivered.  Nodes are the code
   addresses of sensitive callsites; an edge n1 -> n2 says the syscall
   at n2 may immediately follow the one at n1 on some benign path.

   Two deployment modes:
   - [Flow_tiered]: the automaton only *fast-paths*.  A trap whose
     (prev, origin, syscall) edge is in the automaton and whose
     arguments are statically pinned constants resolves at seccomp
     cost; anything else falls through to the full monitor.  A miss is
     never a verdict.
   - [Flow_standalone]: the automaton *is* the defense (the SFIP
     baseline): a flow-consistent call is allowed without a trap, a
     miss kills.  This is the ablation's "prefilter-only" row and the
     cheap-defense column of the attack matrix. *)

type flow_mode = Flow_tiered | Flow_standalone

let flow_mode_name = function
  | Flow_tiered -> "tiered"
  | Flow_standalone -> "prefilter-only"

(** One automaton node: a sensitive callsite the program can trap at.
    [fn_sysno] is the syscall invoked there ([None] for an indirect
    callsite, which may invoke any indirectly-callable sensitive
    number).  [fn_checks] are register-visible argument constraints:
    position [pos] must carry one of the listed values (a singleton is
    a pinned constant; a larger set is the statically-possible value
    set of that argument).  [fn_resolvable] says every AI-checked
    argument position is either constrained that way or provably
    kernel-derived, so the tiered mode may resolve the call without
    fetching tracee state. *)
type flow_node = {
  fn_rip : int64;
  fn_sysno : int option;
  fn_checks : (int * int64 list) list;
  fn_resolvable : bool;
  fn_succs : unit Addr_tbl.t;
}

(** Automaton position: before the first sensitive event, at a known
    node, or desynchronised ([Fs_any]: a full-path verdict allowed an
    event the automaton could not track; every edge check passes until
    it re-synchronises at the next known node). *)
type flow_state = Fs_start | Fs_at of flow_node | Fs_any

type flow_automaton = {
  fa_mode : flow_mode;
  fa_nodes : flow_node Addr_tbl.t;
  fa_starts : unit Addr_tbl.t;
  mutable fa_indirect_slots : int;
      (** one bit per syscall-table slot: the sensitive numbers
          invocable through an indirect callsite *)
  mutable fa_state : flow_state;
  mutable fa_resolved : int;       (** calls resolved without a trap *)
  mutable fa_fallthroughs : int;   (** sensitive traps passed to the full path *)
  mutable fa_kills : int;          (** standalone-mode flow violations *)
  mutable fa_on_resolve : (sysno:int -> rip:int64 -> unit) option;
      (** observation hook (flight recorder); never charges cycles *)
}

(* The slot bits must fit in one immediate int. *)
let () = assert (Syscalls.slots < Sys.int_size)

let flow_create ~mode =
  {
    fa_mode = mode;
    fa_nodes = Addr_tbl.create 64;
    fa_starts = Addr_tbl.create 16;
    fa_indirect_slots = 0;
    fa_state = Fs_start;
    fa_resolved = 0;
    fa_fallthroughs = 0;
    fa_kills = 0;
    fa_on_resolve = None;
  }

let flow_add_node fa (node : flow_node) = Addr_tbl.replace fa.fa_nodes node.fn_rip node

let flow_add_start fa rip = Addr_tbl.replace fa.fa_starts rip ()

let flow_add_edge fa ~src ~dst =
  match Addr_tbl.find_opt fa.fa_nodes src with
  | Some n -> Addr_tbl.replace n.fn_succs dst ()
  | None -> invalid_arg "Seccomp.flow_add_edge: unknown source node"

let flow_add_indirect_sysno fa nr =
  let s = Syscalls.slot nr in
  if s < 0 then invalid_arg (Printf.sprintf "Seccomp.flow_add_indirect_sysno: %d is not in the table" nr);
  fa.fa_indirect_slots <- fa.fa_indirect_slots lor (1 lsl s)

let flow_node_count fa = Addr_tbl.length fa.fa_nodes

let flow_edge_count fa =
  Addr_tbl.fold (fun _ n acc -> acc + Addr_tbl.length n.fn_succs) fa.fa_nodes 0

(** Is the transition current-state -> [rip] an edge of the automaton? *)
let flow_edge_ok fa rip =
  match fa.fa_state with
  | Fs_any -> true
  | Fs_start -> Addr_tbl.mem fa.fa_starts rip
  | Fs_at prev -> Addr_tbl.mem prev.fn_succs rip

let flow_checks_ok (node : flow_node) (args : int64 array) =
  List.for_all
    (fun (pos, allowed) ->
      pos < Array.length args && List.exists (Int64.equal args.(pos)) allowed)
    node.fn_checks

let indirect_ok fa sysno =
  let s = Syscalls.slot sysno in
  s >= 0 && fa.fa_indirect_slots land (1 lsl s) <> 0

type flow_decision = Flow_resolve | Flow_fallthrough | Flow_kill

let flow_miss fa =
  match fa.fa_mode with
  | Flow_tiered ->
    fa.fa_fallthroughs <- fa.fa_fallthroughs + 1;
    Flow_fallthrough
  | Flow_standalone ->
    fa.fa_kills <- fa.fa_kills + 1;
    Flow_kill

let flow_resolve fa node ~sysno ~rip =
  fa.fa_resolved <- fa.fa_resolved + 1;
  fa.fa_state <- Fs_at node;
  (match fa.fa_on_resolve with Some f -> f ~sysno ~rip | None -> ());
  Flow_resolve

(** One automaton step for a sensitive syscall about to trap.  Only
    [sysno], the callsite address and the register-file arguments are
    visible — exactly what a seccomp program sees; no tracee memory is
    touched.  In tiered mode a miss is always [Flow_fallthrough] (the
    pre-filter never decides an attack); in standalone mode a miss is
    [Flow_kill]. *)
let flow_eval fa ~sysno ~rip ~(args : int64 array) : flow_decision =
  match Addr_tbl.find fa.fa_nodes rip with
  | exception Not_found -> flow_miss fa
  | node ->
    let sysno_ok =
      match node.fn_sysno with
      | Some nr -> nr = sysno
      | None -> indirect_ok fa sysno
    in
    if not (sysno_ok && flow_edge_ok fa rip) then flow_miss fa
    else begin
      match fa.fa_mode with
      | Flow_standalone ->
        (* SFP-style in-kernel argument check: positions with a
           statically-known value set must carry one of its values. *)
        if flow_checks_ok node args then flow_resolve fa node ~sysno ~rip else flow_miss fa
      | Flow_tiered ->
        if node.fn_resolvable && flow_checks_ok node args then
          flow_resolve fa node ~sysno ~rip
        else begin
          fa.fa_fallthroughs <- fa.fa_fallthroughs + 1;
          Flow_fallthrough
        end
    end

(** The full monitor allowed a trap the automaton did not resolve:
    re-synchronise.  A known node pins the position exactly; an unknown
    callsite desynchronises to [Fs_any]. *)
let flow_note_allowed fa ~rip =
  fa.fa_state <-
    (match Addr_tbl.find fa.fa_nodes rip with
    | node -> Fs_at node
    | exception Not_found -> Fs_any)

let flow_stats fa = (fa.fa_resolved, fa.fa_fallthroughs, fa.fa_kills)

(* ------------------------------------------------------------------ *)
(* The filter                                                          *)

type filter = {
  actions : action array;  (** one rule per syscall-table slot *)
  others : (int, action) Hashtbl.t;  (** rules for numbers outside the table *)
  default : action;
  mutable evaluations : int;
  mutable flow : flow_automaton option;
      (** the installed syscall-flow pre-filter, if any *)
}

let create ?(default = Allow) () =
  { actions = Array.make Syscalls.slots default; others = Hashtbl.create 1; default;
    evaluations = 0; flow = None }

let set_rule filter nr action =
  let s = Syscalls.slot nr in
  if s >= 0 then filter.actions.(s) <- action else Hashtbl.replace filter.others nr action

let rule filter nr =
  let s = Syscalls.slot nr in
  if s >= 0 then Array.unsafe_get filter.actions s
  else match Hashtbl.find filter.others nr with a -> a | exception Not_found -> filter.default

(** Evaluate the filter for a syscall number (charges nothing itself;
    the kernel charges [Cost.seccomp_eval] per evaluation). *)
let evaluate filter nr =
  filter.evaluations <- filter.evaluations + 1;
  rule filter nr

let evaluations filter = filter.evaluations

(** Build an allowlist filter: listed syscalls allowed, others killed. *)
let allowlist numbers =
  let f = create ~default:Kill () in
  List.iter (fun nr -> set_rule f nr Allow) numbers;
  f

let set_flow filter fa = filter.flow <- fa

let flow filter = filter.flow

(** A copy sharing the (immutable) rule semantics, for seccomp policy
    inheritance across fork/clone.  The flow automaton is shared: the
    model never schedules children separately, and §7.1 keeps forked
    workers under the same monitor. *)
let copy filter =
  {
    actions = Array.copy filter.actions;
    others = Hashtbl.copy filter.others;
    default = filter.default;
    evaluations = 0;
    flow = filter.flow;
  }
