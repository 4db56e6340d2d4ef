(* System-call dispatch: seccomp evaluation, TRACE stops to the attached
   tracer (the BASTION monitor), then the per-syscall semantics over the
   VFS / socket substrates.  Installed as the machine's syscall handler. *)

module Syscalls = Syscalls
module Seccomp = Seccomp
module Vfs = Vfs
module Net = Net
module Ptrace = Ptrace
module Process = Process

let charge (p : Process.t) n = Machine.charge p.machine n

let cost (p : Process.t) = p.machine.config.cost

(* ------------------------------------------------------------------ *)
(* Per-syscall semantics                                               *)

(* Argument [i] as the kernel ABI sees it: registers past the ones the
   call passed read as zero. *)
let arg (args : int64 array) i = if i < Array.length args then args.(i) else 0L

let arg_int args i = Int64.to_int (arg args i)

(* The path in argument 0: [path] when dispatch already read it. *)
let path_of (p : Process.t) ~path args =
  match path with Some s -> s | None -> Machine.read_string p.machine (arg args 0)

let sys_open (p : Process.t) ~path args =
  match Vfs.lookup p.vfs (path_of p ~path args) with
  | Some file -> Int64.of_int (Process.alloc_fd p (File { file; pos = 0 }))
  | None -> -2L

(* Descriptor lookups use [Hashtbl.find], so a hit allocates no option. *)
let sys_read (p : Process.t) args =
  let count = arg_int args 2 in
  match Hashtbl.find p.fds (arg_int args 0) with
  | File f ->
    let n = min count (f.file.size_words - f.pos) in
    let n = max n 0 in
    f.pos <- f.pos + n;
    p.io_words_in <- p.io_words_in + n;
    charge p ((cost p).io_per_word * n);
    Int64.of_int n
  | Conn c ->
    let n = max 0 (min count c.request_words) in
    p.io_words_in <- p.io_words_in + n;
    charge p ((cost p).io_per_word * n);
    Int64.of_int n
  | Sock _ | (exception Not_found) -> -1L

let sys_write (p : Process.t) args =
  let count = max 0 (arg_int args 2) in
  match Hashtbl.find p.fds (arg_int args 0) with
  | Conn _ ->
    p.io_words_out <- p.io_words_out + count;
    charge p ((cost p).io_per_word * count);
    Int64.of_int count
  | File _ ->
    charge p ((cost p).io_per_word * count);
    Int64.of_int count
  | Sock _ | (exception Not_found) -> -1L

(* sendfile(out_fd, in_fd, offset, count): sends at most the words
   left in [in_fd], which must be an open file. *)
let sys_sendfile (p : Process.t) args =
  match Hashtbl.find p.fds (arg_int args 1) with
  | File f ->
    let n = max 0 (min (arg_int args 3) (f.file.size_words - f.pos)) in
    f.pos <- f.pos + n;
    p.io_words_out <- p.io_words_out + n;
    charge p ((cost p).io_per_word * n);
    Int64.of_int n
  | Sock _ | Conn _ | (exception Not_found) -> -1L

(* A negative offset, or one past [max_int], is EINVAL and leaves the
   position alone. *)
let sys_lseek (p : Process.t) args =
  match Hashtbl.find p.fds (arg_int args 0) with
  | File f ->
    let off = arg args 1 in
    if Int64.compare off 0L < 0 || Int64.compare off (Int64.of_int max_int) > 0 then -22L
    else begin
      f.pos <- Int64.to_int off;
      off
    end
  | Sock _ | Conn _ | (exception Not_found) -> -1L

let sys_socket (p : Process.t) = Int64.of_int (Process.alloc_fd p (Sock { port = 0 }))

let sys_bind (p : Process.t) args =
  match Hashtbl.find p.fds (arg_int args 0) with
  | Sock s ->
    s.port <- arg_int args 1;
    0L
  | File _ | Conn _ | (exception Not_found) -> -1L

let sys_listen (p : Process.t) args =
  match Hashtbl.find p.fds (arg_int args 0) with
  | Sock s ->
    Net.listen p.net s.port;
    0L
  | File _ | Conn _ | (exception Not_found) -> -1L

let sys_accept (p : Process.t) args =
  if p.serve_start_cycles = None then
    p.serve_start_cycles <- Some p.machine.stats.cycles;
  match Hashtbl.find p.fds (arg_int args 0) with
  | Sock s -> (
    match Net.accept p.net s.port with
    | Some conn -> Int64.of_int (Process.alloc_fd p (Conn conn))
    | None -> -1L)
  | File _ | Conn _ | (exception Not_found) -> -1L

let sys_mmap (p : Process.t) args =
  let words = max 1 (arg_int args 1) in
  Machine.alloc_heap p.machine words

let sys_chmod (p : Process.t) ~path args =
  Vfs.chmod p.vfs (path_of p ~path args) (arg_int args 1)

(* The semantics of one decoded syscall.  [path] is argument 0 as a
   string when dispatch already read it, so it is read at most once. *)
let run (p : Process.t) (e : Syscalls.entry) ~path ~(args : int64 array) : int64 =
  match e.kind with
  | Open | Openat -> sys_open p ~path args
  | Read | Recvfrom -> sys_read p args
  | Write | Sendto -> sys_write p args
  | Sendfile -> sys_sendfile p args
  | Close ->
    Process.close_fd p (arg_int args 0);
    0L
  | Fsync ->
    charge p (2 * (cost p).syscall_base);
    0L
  | Lseek -> sys_lseek p args
  | Socket -> sys_socket p
  | Bind -> sys_bind p args
  | Listen -> sys_listen p args
  | Accept | Accept4 -> sys_accept p args
  | Mmap -> sys_mmap p args
  | Chmod -> sys_chmod p ~path args
  | Setuid ->
    p.uid <- arg_int args 0;
    0L
  | Setgid ->
    p.gid <- arg_int args 0;
    0L
  | Setreuid ->
    p.uid <- arg_int args 1;
    0L
  | Fork | Vfork | Clone ->
    (* The child inherits a copy of the seccomp policy and stays under
       the same monitor (§7.1); workers are not scheduled separately —
       the parent image serves all connections. *)
    Int64.of_int (Process.spawn_child p).pid
  | Exit -> raise (Machine.Program_exit (arg args 0))
  | Stat | Fstat | Connect | Mprotect | Mremap | Remap_file_pages | Execve | Execveat
  | Ptrace | Getpid | Gettimeofday | Brk | Nanosleep | Futex | Epoll_wait | Rt_sigaction
  | Unknown ->
    0L

let execute (p : Process.t) ~sysno ~(args : int64 array) : int64 =
  run p (Syscalls.decode sysno) ~path:None ~args

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let dispatch (p : Process.t) (_m : Machine.t) ~sysno ~(args : int64 array) : int64 =
  charge p (cost p).syscall_base;
  (match p.filter with
  | None -> ()
  | Some filter -> (
    charge p (cost p).seccomp_eval;
    match Seccomp.evaluate filter sysno with
    | Seccomp.Allow -> ()
    | Seccomp.Kill -> raise (Machine.Killed (Machine.Seccomp_kill { sysno }))
    | Seccomp.Trace ->
      (* Syscall-flow pre-filter (the tiered fast path): an automaton
         step over the seccomp-visible state — number, callsite
         address, register arguments.  A resolved call never traps: no
         context switches, no ptrace, no unwind.  A standalone-mode
         flow violation kills at seccomp stage, like any filter KILL. *)
      let rip = p.machine.trap_rip in
      (* Every TRACE-rule syscall goes through the automaton: the spec
         is extracted from exactly the event set that traps (including
         the filesystem syscalls under Bastion+fs), so gating on the
         sensitive set would both skip resolvable traps and desync the
         edge relation across the skipped nodes. *)
      let prefilter = Seccomp.flow filter in
      let resolved =
        match prefilter with
        | None -> false
        | Some fa -> (
          charge p (cost p).prefilter_eval;
          match Seccomp.flow_eval fa ~sysno ~rip ~args with
          | Seccomp.Flow_resolve -> true
          | Seccomp.Flow_kill ->
            raise (Machine.Killed (Machine.Seccomp_kill { sysno }))
          | Seccomp.Flow_fallthrough -> false)
      in
      if not resolved then begin
        p.trap_count <- p.trap_count + 1;
        charge p (2 * (cost p).trap_context_switch);
        (match p.tracer_hook with
        | None -> ()
        | Some hook -> (
          p.tracer.cur_sysno <- sysno;
          match hook p ~sysno ~args with
          | Process.Continue -> ()
          | Process.Deny { context; detail } ->
            raise (Machine.Killed (Machine.Monitor_kill { context; detail }))));
        (* The full path allowed the trap: re-synchronise the automaton
           so the next edge check starts from this callsite. *)
        match prefilter with
        | Some fa -> Seccomp.flow_note_allowed fa ~rip
        | None -> ()
      end));
  Process.count_syscall p sysno;
  let e = Syscalls.decode sysno in
  (* The path string is read only for a consumer: the exec log keeps it
     for sensitive path syscalls, and an executed-hook receives it.
     Reading charges no modelled cycle. *)
  let path =
    if e.path_arg && Array.length args > 0
       && (e.sensitive || Option.is_some p.on_syscall_executed)
    then Some (Machine.read_string p.machine args.(0))
    else None
  in
  if e.sensitive then Process.log_exec p ~sysno ~args ~path;
  (match p.on_syscall_executed with
  | Some hook -> hook ~sysno ~args ~path
  | None -> ());
  run p e ~path ~args

(** Wire a process's kernel into its machine.  Returns the process. *)
let boot (machine : Machine.t) : Process.t =
  let p = Process.create machine in
  machine.on_syscall <- Some (fun m ~sysno ~args -> dispatch p m ~sysno ~args);
  p
