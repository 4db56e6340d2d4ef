(* A process: a machine image plus kernel-side state (file descriptors,
   seccomp policy, attached tracer, accounting).  Worker processes
   spawned by clone/fork inherit a copy of the parent's policy (§7.1);
   the simulation runs all workers within one process image, so a child
   is only its pid and that copy. *)

type fd_entry =
  | File of { file : Vfs.file; mutable pos : int }
  | Sock of { mutable port : int }
  | Conn of Net.connection

type exec_event = { ev_sysno : int; ev_args : int64 array; ev_path : string option }

type verdict = Continue | Deny of { context : string; detail : string }

type child = { pid : int; filter : Seccomp.filter option }

type t = {
  machine : Machine.t;
  vfs : Vfs.t;
  net : Net.t;
  tracer : Ptrace.t;
  mutable filter : Seccomp.filter option;
  mutable tracer_hook : (t -> sysno:int -> args:int64 array -> verdict) option;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable next_pid : int;
  mutable uid : int;
  mutable gid : int;
  syscall_counts : int array;  (** executed syscalls, by {!Syscalls.slot} *)
  other_counts : (int, int) Hashtbl.t;  (** executed numbers outside the table *)
  mutable trap_count : int;               (** TRACE stops delivered *)
  mutable io_words_out : int;             (** words sent to clients *)
  mutable io_words_in : int;              (** words read from files/clients *)
  mutable exec_log : exec_event list;     (** sensitive syscalls that EXECUTED *)
  mutable serve_start_cycles : int option;
      (** cycle count at the first accept/accept4: the start of the
          steady-state measurement window (what wrk/DBT2/dkftpbench
          actually measure, excluding server initialisation) *)
  mutable on_syscall_executed :
    (sysno:int -> args:int64 array -> path:string option -> unit) option;
      (** observation hook fired whenever a syscall actually executes
          (i.e. passed every deployed defense); the attack runner uses it
          to detect goal completion *)
  mutable children : child list;
      (** processes spawned by fork/clone, newest first; each inherits a
          copy of the parent's seccomp policy (§7.1) *)
}

let create (machine : Machine.t) =
  {
    machine;
    vfs = Vfs.create ();
    net = Net.create ();
    tracer = Ptrace.create machine;
    filter = None;
    tracer_hook = None;
    fds = Hashtbl.create 32;
    next_fd = 3;
    next_pid = 100;
    uid = 0;
    gid = 0;
    syscall_counts = Array.make Syscalls.slots 0;
    other_counts = Hashtbl.create 1;
    trap_count = 0;
    io_words_out = 0;
    io_words_in = 0;
    exec_log = [];
    serve_start_cycles = None;
    on_syscall_executed = None;
    children = [];
  }

(** Spawn a child at fork/clone time: the next pid and a *copy* of the
    seccomp policy (the kernel duplicates the filter into the child,
    §7.1).  Children are never scheduled, so nothing else is built. *)
let spawn_child (parent : t) : child =
  parent.next_pid <- parent.next_pid + 1;
  let child =
    { pid = parent.next_pid; filter = Option.map Seccomp.copy parent.filter }
  in
  parent.children <- child :: parent.children;
  child

(** Cycles spent in the serving phase (after the first accept). *)
let serve_cycles (t : t) =
  let total = t.machine.stats.cycles in
  match t.serve_start_cycles with None -> total | Some c -> total - c

let alloc_fd t entry =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd entry;
  fd

let close_fd t fd = Hashtbl.remove t.fds fd

let syscall_count t nr =
  let s = Syscalls.slot nr in
  if s >= 0 then t.syscall_counts.(s)
  else match Hashtbl.find t.other_counts nr with n -> n | exception Not_found -> 0

let count_syscall t nr =
  let s = Syscalls.slot nr in
  if s >= 0 then t.syscall_counts.(s) <- t.syscall_counts.(s) + 1
  else Hashtbl.replace t.other_counts nr (1 + syscall_count t nr)

let log_exec t ~sysno ~args ~path =
  t.exec_log <- { ev_sysno = sysno; ev_args = args; ev_path = path } :: t.exec_log

(** Sensitive syscalls that reached execution (i.e. passed every
    deployed defense), newest first. *)
let executed_sensitive t = t.exec_log

let executed t name =
  let nr = Syscalls.number name in
  List.filter (fun e -> e.ev_sysno = nr) t.exec_log
