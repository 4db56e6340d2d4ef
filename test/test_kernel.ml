(* Unit tests for the kernel substrate: syscall table, seccomp, VFS,
   sockets, per-syscall semantics, trap flows, the ptrace tracer. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

(* --- syscall table ----------------------------------------------------- *)

let test_syscall_table () =
  Alcotest.(check int) "execve number" 59 (Kernel.Syscalls.number "execve");
  Alcotest.(check int) "mprotect number" 10 (Kernel.Syscalls.number "mprotect");
  Alcotest.(check string) "name roundtrip" "accept4" (Kernel.Syscalls.name 288);
  Alcotest.(check string) "unknown name" "sys_9999" (Kernel.Syscalls.name 9999);
  Alcotest.(check int) "20 sensitive syscalls" 20
    (List.length Kernel.Syscalls.sensitive_numbers);
  Alcotest.(check bool) "mmap sensitive" true
    (Kernel.Syscalls.is_sensitive (Kernel.Syscalls.number "mmap"));
  Alcotest.(check bool) "open not sensitive" false
    (Kernel.Syscalls.is_sensitive (Kernel.Syscalls.number "open"));
  Alcotest.(check bool) "open is filesystem" true
    (Kernel.Syscalls.is_filesystem (Kernel.Syscalls.number "open"));
  Alcotest.(check int) "execve natural arity" 3
    (Kernel.Syscalls.natural_arity (Kernel.Syscalls.number "execve"));
  Alcotest.(check int) "mmap natural arity" 6
    (Kernel.Syscalls.natural_arity (Kernel.Syscalls.number "mmap"));
  match Kernel.Syscalls.category (Kernel.Syscalls.number "setuid") with
  | Kernel.Syscalls.Privilege_escalation -> ()
  | _ -> Alcotest.fail "setuid category"

(* --- seccomp ----------------------------------------------------------- *)

let test_seccomp () =
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Kill () in
  Kernel.Seccomp.set_rule f 1 Kernel.Seccomp.Allow;
  Kernel.Seccomp.set_rule f 2 Kernel.Seccomp.Trace;
  Alcotest.(check bool) "allow" true (Kernel.Seccomp.evaluate f 1 = Kernel.Seccomp.Allow);
  Alcotest.(check bool) "trace" true (Kernel.Seccomp.evaluate f 2 = Kernel.Seccomp.Trace);
  Alcotest.(check bool) "default kill" true
    (Kernel.Seccomp.evaluate f 3 = Kernel.Seccomp.Kill);
  Alcotest.(check int) "evaluations counted" 3 (Kernel.Seccomp.evaluations f);
  let g = Kernel.Seccomp.copy f in
  Kernel.Seccomp.set_rule g 1 Kernel.Seccomp.Kill;
  Alcotest.(check bool) "copy isolated" true
    (Kernel.Seccomp.rule f 1 = Kernel.Seccomp.Allow);
  let al = Kernel.Seccomp.allowlist [ 5; 6 ] in
  Alcotest.(check bool) "allowlist allows" true
    (Kernel.Seccomp.evaluate al 5 = Kernel.Seccomp.Allow);
  Alcotest.(check bool) "allowlist kills" true
    (Kernel.Seccomp.evaluate al 7 = Kernel.Seccomp.Kill)

(* --- vfs / net --------------------------------------------------------- *)

let test_vfs () =
  let v = Kernel.Vfs.create () in
  Kernel.Vfs.add_file v "/a" ~size_words:10;
  Alcotest.(check bool) "exists" true (Kernel.Vfs.exists v "/a");
  Alcotest.(check bool) "missing" false (Kernel.Vfs.exists v "/b");
  Alcotest.(check int64) "chmod ok" 0L (Kernel.Vfs.chmod v "/a" 0o755);
  Alcotest.(check int64) "chmod enoent" (-2L) (Kernel.Vfs.chmod v "/b" 0o755);
  match Kernel.Vfs.lookup v "/a" with
  | Some f ->
    Alcotest.(check int) "size" 10 f.size_words;
    Alcotest.(check int) "mode updated" 0o755 f.mode
  | None -> Alcotest.fail "lookup"

let test_net () =
  let n = Kernel.Net.create () in
  Kernel.Net.listen n 80;
  Alcotest.(check int) "empty queue" 0 (Kernel.Net.pending n 80);
  ignore (Kernel.Net.enqueue n 80 ~request_words:4 ~payload:"GET");
  ignore (Kernel.Net.enqueue n 80 ~request_words:4 ~payload:"GET");
  Alcotest.(check int) "two pending" 2 (Kernel.Net.pending n 80);
  (match Kernel.Net.accept n 80 with
  | Some c -> Alcotest.(check int) "req words" 4 c.request_words
  | None -> Alcotest.fail "accept");
  ignore (Kernel.Net.accept n 80);
  Alcotest.(check bool) "drained" true (Kernel.Net.accept n 80 = None);
  (* Enqueue before listen also works (drivers preload connections). *)
  ignore (Kernel.Net.enqueue n 8080 ~request_words:1 ~payload:"x");
  Alcotest.(check int) "pre-listen enqueue" 1 (Kernel.Net.pending n 8080)

(* --- per-syscall semantics --------------------------------------------- *)

let run_kernel_prog mk =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  mk pb;
  let prog = B.build pb ~entry:"main" in
  Sil.Validate.check_exn prog;
  let machine = Machine.create prog in
  let proc = Kernel.boot machine in
  (machine, proc)

let test_file_io () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        B.global pb "g_n" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let fd = B.local fb "fd" i64 in
        let n = B.local fb "n" i64 in
        let total = B.local fb "total" i64 in
        B.call fb ~dst:fd "open" [ Cstr "/data/file"; const 0 ];
        B.set fb total (const 0);
        B.block fb "loop";
        B.call fb ~dst:n "read" [ Var fd; Null; const 100 ];
        let more = B.local fb "more" i64 in
        B.binop fb more Sil.Instr.Gt (Var n) (const 0);
        B.branch fb (Var more) "acc" "done";
        B.block fb "acc";
        B.binop fb total Sil.Instr.Add (Var total) (Var n);
        B.jump fb "loop";
        B.block fb "done";
        B.call fb "close" [ Var fd ];
        B.store fb (Sil.Place.Lglobal "g_n") (Var total);
        B.halt fb;
        B.seal fb)
  in
  Kernel.Vfs.add_file proc.vfs "/data/file" ~size_words:250;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "all words read in chunks" 250L
    (Machine.peek machine (Machine.global_address machine "g_n"));
  Alcotest.(check int) "io accounted" 250 proc.io_words_in

let test_open_enoent () =
  let machine, _ =
    run_kernel_prog (fun pb ->
        B.global pb "g_fd" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let fd = B.local fb "fd" i64 in
        B.call fb ~dst:fd "open" [ Cstr "/missing"; const 0 ];
        B.store fb (Sil.Place.Lglobal "g_fd") (Var fd);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "-ENOENT" (-2L)
    (Machine.peek machine (Machine.global_address machine "g_fd"))

let test_socket_lifecycle () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        B.global pb "g_served" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let s = B.local fb "s" i64 in
        let c = B.local fb "c" i64 in
        let served = B.local fb "served" i64 in
        let got = B.local fb "got" i64 in
        B.call fb ~dst:s "socket" [ const 2; const 1; const 0 ];
        B.call fb "bind" [ Var s; const 443 ];
        B.call fb "listen" [ Var s; const 16 ];
        B.set fb served (const 0);
        B.block fb "loop";
        B.call fb ~dst:c "accept" [ Var s; Null; const 2 ];
        B.binop fb got Sil.Instr.Ge (Var c) (const 0);
        B.branch fb (Var got) "serve" "done";
        B.block fb "serve";
        B.call fb "write" [ Var c; Null; const 10 ];
        B.call fb "close" [ Var c ];
        B.binop fb served Sil.Instr.Add (Var served) (const 1);
        B.jump fb "loop";
        B.block fb "done";
        B.store fb (Sil.Place.Lglobal "g_served") (Var served);
        B.halt fb;
        B.seal fb)
  in
  for _ = 1 to 5 do
    ignore (Kernel.Net.enqueue proc.net 443 ~request_words:2 ~payload:"hi")
  done;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "served all pending" 5L
    (Machine.peek machine (Machine.global_address machine "g_served"));
  Alcotest.(check int) "bytes out" 50 proc.io_words_out;
  Alcotest.(check bool) "serve window marked" true (proc.serve_start_cycles <> None)

let test_exec_log_and_hook () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "setuid" [ const 123 ];
        B.call fb "execve" [ Cstr "/bin/true"; Null; Null ];
        B.halt fb;
        B.seal fb)
  in
  let seen = ref [] in
  proc.on_syscall_executed <-
    Some (fun ~sysno ~args:_ ~path -> seen := (sysno, path) :: !seen);
  Testlib.check_exit (Machine.run machine);
  (match Kernel.Process.executed proc "execve" with
  | [ e ] -> Alcotest.(check (option string)) "path logged" (Some "/bin/true") e.ev_path
  | _ -> Alcotest.fail "expected one execve event");
  Alcotest.(check int) "setuid counted" 1
    (Kernel.Process.syscall_count proc (Kernel.Syscalls.number "setuid"));
  Alcotest.(check bool) "hook saw both" true (List.length !seen >= 2)

let test_trap_flow_kill_and_verdict () =
  let build () =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "mprotect" [ Null; const 4096; const 5 ];
        B.halt fb;
        B.seal fb)
  in
  (* KILL rule terminates the program. *)
  let machine, proc = build () in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mprotect") Kernel.Seccomp.Kill;
  proc.filter <- Some f;
  Testlib.check_fault (Machine.run machine) Testlib.is_seccomp_kill "kill";
  (* TRACE delivers the trap to the hook; Deny kills with the context. *)
  let machine, proc = build () in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mprotect") Kernel.Seccomp.Trace;
  proc.filter <- Some f;
  let trapped = ref 0 in
  proc.tracer_hook <-
    Some
      (fun _proc ~sysno ~args ->
        incr trapped;
        Alcotest.(check int) "sysno" (Kernel.Syscalls.number "mprotect") sysno;
        Alcotest.(check int64) "arg1" 4096L args.(1);
        Kernel.Process.Deny { context = "test"; detail = "nope" });
  Testlib.check_fault (Machine.run machine)
    (Testlib.is_monitor_kill ~context:"test")
    "deny";
  Alcotest.(check int) "trap delivered once" 1 !trapped;
  Alcotest.(check int) "trap counted" 1 proc.trap_count

(* --- ptrace ------------------------------------------------------------ *)

let test_ptrace_tracer () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "leaf" ~params:[ ("x", i64) ] in
        B.call fb "mmap" [ Null; Var (B.param fb 0); const 3; const 2; const (-1); const 0 ];
        B.ret fb None;
        B.seal fb;
        let fb = B.func pb "mid" ~params:[ ("x", i64) ] in
        B.call fb "leaf" [ Var (B.param fb 0) ];
        B.ret fb None;
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        B.call fb "mid" [ const 8192 ];
        B.halt fb;
        B.seal fb)
  in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mmap") Kernel.Seccomp.Trace;
  proc.filter <- Some f;
  let checked = ref false in
  proc.tracer_hook <-
    Some
      (fun proc ~sysno:_ ~args:_ ->
        checked := true;
        let tracer = proc.tracer in
        let regs = Kernel.Ptrace.getregs tracer in
        Alcotest.(check int) "sysno via regs" (Kernel.Syscalls.number "mmap") regs.sysno;
        Alcotest.(check int64) "size arg" 8192L regs.args.(1);
        let frames = Kernel.Ptrace.stack_trace tracer in
        Alcotest.(check (list string)) "stack funcs" [ "leaf"; "mid"; "main" ]
          (List.map (fun (fv : Kernel.Ptrace.frame_view) -> fv.fv_func) frames);
        (* Unwound tokens map back to the correct caller callsites. *)
        (match frames with
        | leaf :: _ -> (
          match leaf.fv_ret_token with
          | Some token -> (
            match Kernel.Ptrace.callsite_of_token tracer token with
            | Some loc -> Alcotest.(check string) "caller is mid" "mid" loc.func
            | None -> Alcotest.fail "token did not decode")
          | None -> Alcotest.fail "leaf has no ret token")
        | [] -> Alcotest.fail "no frames");
        Alcotest.(check bool) "costs charged" true (tracer.words_read > 0);
        Kernel.Process.Continue);
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check bool) "tracer ran" true !checked

let suites =
  [
    ( "kernel",
      [
        Alcotest.test_case "syscall table" `Quick test_syscall_table;
        Alcotest.test_case "seccomp engine" `Quick test_seccomp;
        Alcotest.test_case "vfs" `Quick test_vfs;
        Alcotest.test_case "net" `Quick test_net;
        Alcotest.test_case "file io semantics" `Quick test_file_io;
        Alcotest.test_case "open ENOENT" `Quick test_open_enoent;
        Alcotest.test_case "socket lifecycle" `Quick test_socket_lifecycle;
        Alcotest.test_case "exec log + executed hook" `Quick test_exec_log_and_hook;
        Alcotest.test_case "trap flow: kill and verdicts" `Quick
          test_trap_flow_kill_and_verdict;
        Alcotest.test_case "ptrace tracer" `Quick test_ptrace_tracer;
      ] );
  ]

(* Appended: §7.1 policy inheritance across fork/clone. *)
let test_policy_inheritance () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "clone" [ const 0 ];
        B.call fb "fork" [];
        B.halt fb;
        B.seal fb)
  in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "execve") Kernel.Seccomp.Kill;
  proc.filter <- Some f;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int) "two children" 2 (List.length proc.children);
  List.iter
    (fun (child : Kernel.Process.child) ->
      match child.filter with
      | Some cf ->
        Alcotest.(check bool) "child inherits KILL rule" true
          (Kernel.Seccomp.rule cf (Kernel.Syscalls.number "execve") = Kernel.Seccomp.Kill)
      | None -> Alcotest.fail "child has no filter")
    proc.children;
  (* Copies are isolated: tightening the parent later does not leak. *)
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mmap") Kernel.Seccomp.Kill;
  List.iter
    (fun (child : Kernel.Process.child) ->
      match child.filter with
      | Some cf ->
        Alcotest.(check bool) "child filter isolated" true
          (Kernel.Seccomp.rule cf (Kernel.Syscalls.number "mmap") = Kernel.Seccomp.Allow)
      | None -> ())
    proc.children

let suites =
  match suites with
  | [ (name, cases) ] ->
    [ (name, cases @ [ Alcotest.test_case "fork/clone policy inheritance" `Quick test_policy_inheritance ]) ]
  | other -> other

(* --- the decoded syscall table ----------------------------------------- *)

module Sc = Kernel.Syscalls

(* The C-prototype arities the kernel model has always used, as the
   name-keyed oracle the decoded table must reproduce. *)
let reference_arity = function
  | "execve" | "connect" | "bind" | "read" | "write" | "mprotect" | "open" | "lseek"
  | "accept" | "chmod" | "setreuid" | "socket" ->
    3
  | "mmap" -> 6
  | "execveat" | "mremap" | "remap_file_pages" -> 5
  | "accept4" | "openat" | "sendfile" -> 4
  | "listen" | "stat" | "fstat" | "recvfrom" | "sendto" | "futex" -> 2
  | "setuid" | "setgid" | "close" | "fsync" | "exit" | "brk" | "nanosleep" | "ptrace"
  | "clone" ->
    1
  | "fork" | "vfork" | "getpid" | "gettimeofday" -> 0
  | _ -> 6

let test_table_round_trip () =
  Alcotest.(check int) "one slot per entry" (List.length Sc.table) Sc.slots;
  let kinds = ref [] in
  List.iteri
    (fun i (name, nr, category) ->
      let e = Sc.decode (Sc.number name) in
      Alcotest.(check int) (name ^ " slot by number") i (Sc.slot nr);
      Alcotest.(check string) (name ^ " name") name (Sc.name nr);
      Alcotest.(check bool) (name ^ " category") true (e.category = category);
      Alcotest.(check bool) (name ^ " known kind") true (e.kind <> Sc.Unknown);
      Alcotest.(check bool) (name ^ " kind unique") false (List.mem e.kind !kinds);
      kinds := e.kind :: !kinds;
      Alcotest.(check int) (name ^ " natural arity") (reference_arity name)
        (Sc.natural_arity (Sc.number name));
      Alcotest.(check bool) (name ^ " sensitive") (List.mem name Sc.sensitive_names)
        e.sensitive;
      Alcotest.(check bool) (name ^ " path argument")
        (List.mem name [ "execve"; "execveat"; "chmod"; "open"; "openat"; "stat" ])
        e.path_arg)
    Sc.table;
  List.iter
    (fun nr ->
      Alcotest.(check int) (Printf.sprintf "%d unknown" nr) (-1) (Sc.slot nr);
      Alcotest.(check bool) (Printf.sprintf "%d decodes to unknown" nr) true
        ((Sc.decode nr).kind = Sc.Unknown);
      Alcotest.(check int) (Printf.sprintf "%d arity" nr) 6 (Sc.natural_arity nr))
    [ min_int; -1; 6; 321; 323; 512; max_int ]

(* Syscall numbers a hostile tracee may pass: the table's own, the
   edges of the int range, the neighbours of the table's largest
   number, and anything else. *)
let gen_sysno =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl (List.map (fun (_, nr, _) -> nr) Sc.table));
        (2, oneofl [ min_int; max_int; -1; 0; 321; 322; 323; 511; 512 ]);
        (2, int);
        (1, int_range (-8) 600);
      ])

let arb_sysno = QCheck.make ~print:string_of_int gen_sysno

let gen_action = QCheck.Gen.oneofl Kernel.Seccomp.[ Allow; Kill; Trace ]

let arb_rules =
  QCheck.make
    ~print:QCheck.Print.(list (pair int (fun a -> Kernel.Seccomp.action_name a)))
    QCheck.Gen.(list_size (int_bound 30) (pair gen_sysno gen_action))

(* The rule a filter built from [rules] (later ones win) must give. *)
let reference_rule ~default rules nr =
  match List.assoc_opt nr (List.rev rules) with Some a -> a | None -> default

(* A process whose program does nothing, for driving the kernel
   directly. *)
let idle_process () =
  snd
    (run_kernel_prog (fun pb ->
         let fb = B.func pb "main" ~params:[] in
         B.halt fb;
         B.seal fb))

let prop_seccomp_hostile_numbers =
  let module S = Kernel.Seccomp in
  let flip (nr, a) = (nr, if a = S.Allow then S.Trace else S.Allow) in
  QCheck.Test.make ~count:300 ~name:"seccomp rules agree with a reference on any number"
    QCheck.(triple arb_rules arb_rules (list_of_size (Gen.int_bound 20) arb_sysno))
    (fun (before, after, probes) ->
      let f = S.create ~default:S.Kill () in
      List.iter (fun (nr, a) -> S.set_rule f nr a) before;
      let c = S.copy f in
      (* Rules set after the copy, on either side, must not leak into
         the other. *)
      List.iter (fun (nr, a) -> S.set_rule f nr a) after;
      List.iter (fun (nr, a) -> S.set_rule c nr a) (List.map flip after);
      let numbers = probes @ List.map fst before @ List.map fst after in
      List.for_all
        (fun nr ->
          S.evaluate f nr = S.rule f nr
          && S.rule f nr = reference_rule ~default:S.Kill (before @ after) nr
          && S.evaluate c nr = reference_rule ~default:S.Kill (before @ List.map flip after) nr)
        numbers
      && S.evaluations f = List.length numbers
      && S.evaluations c = List.length numbers)

let prop_syscall_counts_hostile_numbers =
  QCheck.Test.make ~count:200 ~name:"per-slot syscall counts agree with a Hashtbl"
    QCheck.(pair (list arb_sysno) (list_of_size (Gen.int_bound 10) arb_sysno))
    (fun (calls, probes) ->
      let proc = idle_process () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun nr ->
          Kernel.Process.count_syscall proc nr;
          Hashtbl.replace reference nr
            (1 + Option.value ~default:0 (Hashtbl.find_opt reference nr)))
        calls;
      List.for_all
        (fun nr ->
          Kernel.Process.syscall_count proc nr
          = Option.value ~default:0 (Hashtbl.find_opt reference nr))
        (probes @ calls))

let prop_execute_unknown_numbers =
  QCheck.Test.make ~count:300 ~name:"executing an unknown number returns 0, never raises"
    QCheck.(pair arb_sysno (array_of_size (Gen.int_bound 8) (map Int64.of_int int)))
    (fun (nr, args) ->
      QCheck.assume (Sc.slot nr < 0);
      Kernel.execute (idle_process ()) ~sysno:nr ~args = 0L)

(* --- path delivery ----------------------------------------------------- *)

let path_syscalls = [ "execve"; "execveat"; "chmod"; "open"; "openat"; "stat" ]

(* Every table syscall is called once with a path in argument 0 (exit
   last): exactly the six path syscalls hand it to the executed-hook. *)
let test_path_delivery () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        List.iter
          (fun (name, _, _) ->
            if name <> "exit" then B.call fb name [ Cstr "/p"; const 0; const 0 ])
          Sc.table;
        B.call fb "exit" [ Cstr "/p" ];
        B.halt fb;
        B.seal fb)
  in
  let seen = ref [] in
  proc.on_syscall_executed <-
    Some (fun ~sysno ~args:_ ~path -> seen := (Sc.name sysno, path) :: !seen);
  ignore (Machine.run machine);
  Alcotest.(check int) "every syscall executed" (List.length Sc.table) (List.length !seen);
  List.iter
    (fun (name, path) ->
      let want = if List.mem name path_syscalls then Some "/p" else None in
      Alcotest.(check (option string)) (name ^ " path") want path)
    !seen;
  Alcotest.(check (option string)) "fstat gets no path" None (List.assoc "fstat" !seen)

(* With no hook installed, the exec log still keeps the paths of the
   sensitive path syscalls. *)
let test_exec_log_paths_without_hook () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "chmod" [ Cstr "/etc/shadow"; const 0o777 ];
        B.call fb "execve" [ Cstr "/bin/sh"; Null; Null ];
        B.call fb "open" [ Cstr "/etc/passwd"; const 0 ];
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit (Machine.run machine);
  let path_of name =
    match Kernel.Process.executed proc name with
    | [ e ] -> e.ev_path
    | _ -> Alcotest.failf "expected one %s event" name
  in
  Alcotest.(check (option string)) "execve path" (Some "/bin/sh") (path_of "execve");
  Alcotest.(check (option string)) "chmod path" (Some "/etc/shadow") (path_of "chmod");
  Alcotest.(check int) "open is not logged" 0
    (List.length (Kernel.Process.executed proc "open"))

(* --- argument hygiene -------------------------------------------------- *)

(* A read of [count] words from an accepted connection: (result, words
   in, final modelled cycles). *)
let conn_read count =
  let machine, proc =
    run_kernel_prog (fun pb ->
        B.global pb "g_n" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let s = B.local fb "s" i64 and c = B.local fb "c" i64 and n = B.local fb "n" i64 in
        B.call fb ~dst:s "socket" [ const 2; const 1; const 0 ];
        B.call fb "bind" [ Var s; const 80 ];
        B.call fb "listen" [ Var s; const 1 ];
        B.call fb ~dst:c "accept" [ Var s; Null; Null ];
        B.call fb ~dst:n "read" [ Var c; Null; const count ];
        B.store fb (Sil.Place.Lglobal "g_n") (Var n);
        B.halt fb;
        B.seal fb)
  in
  ignore (Kernel.Net.enqueue proc.net 80 ~request_words:4 ~payload:"GET");
  Testlib.check_exit (Machine.run machine);
  ( Machine.peek machine (Machine.global_address machine "g_n"),
    proc.io_words_in,
    machine.stats.cycles )

(* A negative count reads exactly what a zero count reads. *)
let test_conn_read_negative_count () =
  let n, words_in, cycles = conn_read (-50) in
  let _, _, zero_cycles = conn_read 0 in
  Alcotest.(check int64) "reads nothing" 0L n;
  Alcotest.(check int) "no words in" 0 words_in;
  Alcotest.(check int) "charged as a zero-word read" zero_cycles cycles

let test_lseek_negative_offset () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        B.global pb "g_seek" i64 Sil.Prog.Zero;
        B.global pb "g_n" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let fd = B.local fb "fd" i64 and r = B.local fb "r" i64 and n = B.local fb "n" i64 in
        B.call fb ~dst:fd "open" [ Cstr "/data/file"; const 0 ];
        B.call fb ~dst:r "lseek" [ Var fd; const (-5); const 0 ];
        B.store fb (Sil.Place.Lglobal "g_seek") (Var r);
        B.call fb ~dst:n "read" [ Var fd; Null; const 100 ];
        B.store fb (Sil.Place.Lglobal "g_n") (Var n);
        B.halt fb;
        B.seal fb)
  in
  Kernel.Vfs.add_file proc.vfs "/data/file" ~size_words:10;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "EINVAL" (-22L)
    (Machine.peek machine (Machine.global_address machine "g_seek"));
  Alcotest.(check int64) "position unchanged: the whole file, no more" 10L
    (Machine.peek machine (Machine.global_address machine "g_n"))

(* sendfile sends only from an open file, and only the words left in
   it: an unopened in_fd used to report, count and charge all of
   [count]. *)
let test_sendfile_in_fd () =
  let pr =
    Workloads.Drivers.prepare
      (Workloads.Drivers.nginx ~params:Workloads.Nginx_model.small ())
      Workloads.Drivers.Vanilla
  in
  let proc = pr.pr_process and machine = pr.pr_machine in
  let sendfile in_fd =
    Kernel.execute proc ~sysno:(Sc.number "sendfile") ~args:[| 1L; in_fd; 0L; 50L |]
  in
  let cycles0 = machine.stats.cycles in
  Alcotest.(check int64) "in_fd not open" (-1L) (sendfile 9999L);
  Alcotest.(check int) "nothing sent" 0 proc.io_words_out;
  Alcotest.(check int) "nothing charged" cycles0 machine.stats.cycles;
  Kernel.Vfs.add_file proc.vfs "/short" ~size_words:10;
  let file = Option.get (Kernel.Vfs.lookup proc.vfs "/short") in
  let fd = Int64.of_int (Kernel.Process.alloc_fd proc (File { file; pos = 4 })) in
  Alcotest.(check int64) "what remains" 6L (sendfile fd);
  Alcotest.(check int) "six words sent" 6 proc.io_words_out;
  Alcotest.(check int) "six words charged"
    (6 * machine.config.cost.io_per_word) (machine.stats.cycles - cycles0);
  Alcotest.(check int64) "then nothing" 0L (sendfile fd);
  Alcotest.(check int) "still six words" 6 proc.io_words_out

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            Alcotest.test_case "decoded table round-trips" `Quick test_table_round_trip;
            QCheck_alcotest.to_alcotest prop_seccomp_hostile_numbers;
            QCheck_alcotest.to_alcotest prop_syscall_counts_hostile_numbers;
            QCheck_alcotest.to_alcotest prop_execute_unknown_numbers;
            Alcotest.test_case "path delivery to the executed-hook" `Quick test_path_delivery;
            Alcotest.test_case "exec log keeps paths without a hook" `Quick
              test_exec_log_paths_without_hook;
            Alcotest.test_case "conn read clamps a negative count" `Quick
              test_conn_read_negative_count;
            Alcotest.test_case "lseek rejects a negative offset" `Quick
              test_lseek_negative_offset;
            Alcotest.test_case "sendfile needs an open in_fd" `Quick test_sendfile_in_fd;
          ] );
    ]
  | other -> other
