(* Shared helpers for the test suites: small program fixtures built with
   the SIL builder. *)

module B = Sil.Builder

let check_exit outcome =
  match (outcome : Machine.outcome) with
  | Machine.Exited _ -> ()
  | Machine.Faulted f -> Alcotest.failf "expected clean exit, got %s" (Machine.fault_to_string f)

let check_fault outcome pred name =
  match (outcome : Machine.outcome) with
  | Machine.Exited _ -> Alcotest.failf "expected %s fault, program exited" name
  | Machine.Faulted f ->
    if not (pred f) then
      Alcotest.failf "expected %s fault, got %s" name (Machine.fault_to_string f)

let is_monitor_kill ?context (f : Machine.fault) =
  match f with
  | Machine.Monitor_kill { context = c; _ } -> (
    match context with Some want -> String.equal want c | None -> true)
  | _ -> false

let is_seccomp_kill = function Machine.Seccomp_kill _ -> true | _ -> false
let is_cet_violation = function Machine.Cet_violation _ -> true | _ -> false
let is_cfi_violation = function Machine.Cfi_violation _ -> true | _ -> false

(** A minimal program exercising the BASTION pipeline end to end:

    main stores a path into a global exec context, then calls
    [do_exec], which loads the path and invokes execve directly.  Also
    contains an unused function pointer dispatch so the program has an
    indirect callsite, and a helper that mprotects a buffer. *)
let exec_program () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.struct_ pb "exec_ctx" [ ("path", Sil.Types.Ptr Sil.Types.I64); ("flag", Sil.Types.I64) ];
  B.global pb "gctx" (Sil.Types.Struct "exec_ctx") Sil.Prog.Zero;
  B.global pb "ghandler" (Sil.Types.Ptr (Sil.Types.Func { params = [ Sil.Types.I64 ]; ret = Sil.Types.I64 }))
    (Sil.Prog.Fptr "log_event");
  (* A benign indirect-call target. *)
  let fb = B.func pb "log_event" ~params:[ ("code", Sil.Types.I64) ] in
  B.ret fb (Some (Sil.Operand.Var (B.param fb 0)));
  B.seal fb;
  (* do_exec(ctx): execve(ctx->path, 0, 0) *)
  let fb = B.func pb "do_exec" ~params:[ ("ctx", Sil.Types.Ptr (Sil.Types.Struct "exec_ctx")) ] in
  let path = B.local fb "path" (Sil.Types.Ptr Sil.Types.I64) in
  B.load fb path (Sil.Place.Lfield (Sil.Operand.Var (B.param fb 0), "exec_ctx", "path"));
  B.call fb "execve" [ Sil.Operand.Var path; Sil.Operand.Null; Sil.Operand.Null ];
  B.ret fb None;
  B.seal fb;
  (* protect_buf(): mprotect(heap, 16, PROT_READ) *)
  let fb = B.func pb "protect_buf" ~params:[] in
  let buf = B.local fb "buf" (Sil.Types.Ptr Sil.Types.I64) in
  let r = B.local fb "r" Sil.Types.I64 in
  B.call fb ~dst:buf "mmap" [ Sil.Operand.Null; Sil.Operand.const 16; Sil.Operand.const 1 ];
  B.call fb ~dst:r "mprotect" [ Sil.Operand.Var buf; Sil.Operand.const 16; Sil.Operand.const 1 ];
  B.ret fb None;
  B.seal fb;
  (* compute(): pure helper with no syscalls — ROP target for tests *)
  let fb = B.func pb "compute" ~params:[ ("x", Sil.Types.I64) ] in
  let y = B.local fb "y" Sil.Types.I64 in
  B.binop fb y Sil.Instr.Mul (Sil.Operand.Var (B.param fb 0)) (Sil.Operand.const 3);
  B.binop fb y Sil.Instr.Add (Sil.Operand.Var y) (Sil.Operand.const 1);
  B.ret fb (Some (Sil.Operand.Var y));
  B.seal fb;
  (* main *)
  let fb = B.func pb "main" ~params:[] in
  let p = B.local fb "p" (Sil.Types.Ptr (Sil.Types.Struct "exec_ctx")) in
  let h = B.local fb "h" (Sil.Types.Ptr Sil.Types.I64) in
  let r = B.local fb "r" Sil.Types.I64 in
  B.addr_of fb p (Sil.Place.Lglobal "gctx");
  B.store fb (Sil.Place.Lfield (Sil.Operand.Var p, "exec_ctx", "path"))
    (Sil.Operand.Cstr "/usr/bin/app");
  B.store fb (Sil.Place.Lfield (Sil.Operand.Var p, "exec_ctx", "flag")) (Sil.Operand.const 7);
  B.call fb "protect_buf" [];
  B.call fb ~dst:r "compute" [ Sil.Operand.const 5 ];
  B.load fb h (Sil.Place.Lglobal "ghandler");
  B.call_indirect fb ~dst:r (Sil.Operand.Var h) [ Sil.Operand.const 42 ];
  B.call fb "do_exec" [ Sil.Operand.Var p ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

(** Run a protected session to completion, returning outcome + session. *)
let run_protected ?monitor_config prog =
  let protected_prog = Bastion.Api.protect prog in
  let session = Bastion.Api.launch ?monitor_config protected_prog () in
  let outcome = Machine.run session.machine in
  (outcome, session)

(* --- allocation meters ------------------------------------------------- *)

(** Minor-heap words allocated inside metered calls, and the number of
    calls. *)
type meter = { mutable words : int; mutable calls : int }

let meter () = { words = 0; calls = 0 }

(* [Gc.minor_words] reads an unboxed counter and the totals are
   immediate ints, so the bracket allocates nothing itself, not even
   when one meter's bracket runs inside another's. *)
let minor_words () = int_of_float (Gc.minor_words ())

let settle m w0 =
  m.words <- m.words + (minor_words () - w0);
  m.calls <- m.calls + 1

(** [meter_hook m h] is the per-event hook [h] (a machine's
    [on_syscall] or a process's [tracer_hook]) with the words each call
    allocates added to [m]. *)
let meter_hook m h =
  let metered x ~sysno ~args =
    let w0 = minor_words () in
    match h x ~sysno ~args with
    | v -> settle m w0; v
    | exception e -> settle m w0; raise e
  in
  metered

(** [meter_intrinsic m h] is [meter_hook] for a machine's
    [on_intrinsic] hook. *)
let meter_intrinsic m h =
  let metered x ~name ~args =
    let w0 = minor_words () in
    match h x ~name ~args with
    | v -> settle m w0; v
    | exception e -> settle m w0; raise e
  in
  metered

(** Words per call of [m]. *)
let words_per_call m = float_of_int m.words /. float_of_int m.calls
