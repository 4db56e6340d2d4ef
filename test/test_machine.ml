(* Unit tests for the machine: memory, layout, interpreter semantics,
   control transfers, CET, cost accounting. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

(* --- memory ----------------------------------------------------------- *)

let test_memory_words () =
  let m = Machine.Memory.create () in
  Alcotest.(check int64) "unmapped reads zero" 0L (Machine.Memory.read m 0x1000L);
  Machine.Memory.write m 0x1000L 42L;
  Alcotest.(check int64) "write/read" 42L (Machine.Memory.read m 0x1000L);
  Machine.Memory.write m 0x1000L 0L;
  Alcotest.(check int) "zero writes unmap" 0 (Machine.Memory.mapped_words m);
  Machine.Memory.write_block m 0x2000L [| 1L; 2L; 3L |];
  Alcotest.(check bool) "block roundtrip" true
    (Machine.Memory.read_block m 0x2000L 3 = [| 1L; 2L; 3L |])

let test_memory_strings () =
  let m = Machine.Memory.create () in
  let words = Machine.Memory.write_string m 0x3000L "hello" in
  Alcotest.(check int) "words written" 6 words;
  Alcotest.(check string) "string roundtrip" "hello" (Machine.Memory.read_string m 0x3000L);
  Alcotest.(check string) "empty string" "" (Machine.Memory.read_string m 0x9999L)

(* --- layout ----------------------------------------------------------- *)

let test_layout () =
  let prog = Testlib.exec_program () in
  let layout = Machine.Layout.build prog in
  (* Function entries resolve back to their functions. *)
  List.iter
    (fun (f : Sil.Func.t) ->
      let entry = Machine.Layout.func_entry layout f.fname in
      Alcotest.(check (option string))
        ("entry of " ^ f.fname) (Some f.fname)
        (Machine.Layout.func_of_entry_addr layout entry))
    (Sil.Prog.functions prog);
  (* A mid-function address is not a valid call target. *)
  let mid = Machine.Layout.addr_of_loc layout (Sil.Loc.make "main" "entry" 1) in
  Alcotest.(check (option string)) "mid-function not an entry" None
    (Machine.Layout.func_of_entry_addr layout mid);
  (* Globals get distinct addresses. *)
  let a1 = Machine.Layout.global_addr layout "gctx" in
  let a2 = Machine.Layout.global_addr layout "ghandler" in
  Alcotest.(check bool) "distinct global addrs" true (not (Int64.equal a1 a2))

let test_rodata_interning () =
  let prog = Testlib.exec_program () in
  let m = Machine.create prog in
  let a = Machine.Layout.intern_string m.layout m.mem "/bin/id" in
  let b = Machine.Layout.intern_string m.layout m.mem "/bin/id" in
  let c = Machine.Layout.intern_string m.layout m.mem "/bin/ls" in
  Alcotest.(check int64) "idempotent" a b;
  Alcotest.(check bool) "distinct strings distinct addrs" true (not (Int64.equal a c));
  Alcotest.(check string) "contents" "/bin/id" (Machine.read_string m a)

(* --- interpreter ------------------------------------------------------ *)

(* Run main() and return the machine. *)
let run_prog mk =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  mk pb;
  let prog = B.build pb ~entry:"main" in
  Sil.Validate.check_exn prog;
  let machine = Machine.create prog in
  let proc = Kernel.boot machine in
  (machine, proc, Machine.run machine)

let test_arith_and_branches () =
  (* Computes 10! iteratively, stores it in a global. *)
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_result" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let acc = B.local fb "acc" i64 in
        let i = B.local fb "i" i64 in
        let c = B.local fb "c" i64 in
        B.set fb acc (const 1);
        B.set fb i (const 1);
        B.block fb "head";
        B.binop fb c Sil.Instr.Le (Var i) (const 10);
        B.branch fb (Var c) "body" "done";
        B.block fb "body";
        B.binop fb acc Sil.Instr.Mul (Var acc) (Var i);
        B.binop fb i Sil.Instr.Add (Var i) (const 1);
        B.jump fb "head";
        B.block fb "done";
        B.store fb (Sil.Place.Lglobal "g_result") (Var acc);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "10!" 3628800L
    (Machine.peek machine (Machine.global_address machine "g_result"))

let test_call_return_values () =
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_out" i64 Sil.Prog.Zero;
        let fb = B.func pb "double" ~params:[ ("x", i64) ] in
        let y = B.local fb "y" i64 in
        B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (Var (B.param fb 0));
        B.ret fb (Some (Var y));
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        let r = B.local fb "r" i64 in
        B.call fb ~dst:r "double" [ const 21 ];
        B.call fb ~dst:r "double" [ Var r ];
        B.store fb (Sil.Place.Lglobal "g_out") (Var r);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "nested doubling" 84L
    (Machine.peek machine (Machine.global_address machine "g_out"))

let test_recursion () =
  (* fib(12) via naive recursion exercises deep frames + returns. *)
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_out" i64 Sil.Prog.Zero;
        let fb = B.func pb "fib" ~params:[ ("n", i64) ] in
        let c = B.local fb "c" i64 in
        let a = B.local fb "a" i64 in
        let b = B.local fb "b" i64 in
        let t = B.local fb "t" i64 in
        B.binop fb c Sil.Instr.Lt (Var (B.param fb 0)) (const 2);
        B.branch fb (Var c) "base" "rec";
        B.block fb "base";
        B.ret fb (Some (Var (B.param fb 0)));
        B.block fb "rec";
        B.binop fb t Sil.Instr.Sub (Var (B.param fb 0)) (const 1);
        B.call fb ~dst:a "fib" [ Var t ];
        B.binop fb t Sil.Instr.Sub (Var (B.param fb 0)) (const 2);
        B.call fb ~dst:b "fib" [ Var t ];
        B.binop fb a Sil.Instr.Add (Var a) (Var b);
        B.ret fb (Some (Var a));
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        let r = B.local fb "r" i64 in
        B.call fb ~dst:r "fib" [ const 12 ];
        B.store fb (Sil.Place.Lglobal "g_out") (Var r);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "fib 12" 144L
    (Machine.peek machine (Machine.global_address machine "g_out"))

let test_indirect_call_resolution () =
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_fp" ptr (Sil.Prog.Fptr "inc");
        B.global pb "g_out" i64 Sil.Prog.Zero;
        let fb = B.func pb "inc" ~params:[ ("x", i64) ] in
        let y = B.local fb "y" i64 in
        B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 1);
        B.ret fb (Some (Var y));
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        let h = B.local fb "h" ptr in
        let r = B.local fb "r" i64 in
        B.load fb h (Sil.Place.Lglobal "g_fp");
        B.call_indirect fb ~dst:r (Var h) [ const 6 ];
        B.store fb (Sil.Place.Lglobal "g_out") (Var r);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "indirect call result" 7L
    (Machine.peek machine (Machine.global_address machine "g_out"))

let test_bad_indirect_target_faults () =
  let _, _, outcome =
    run_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        let h = B.local fb "h" ptr in
        B.set fb h (const 0xdead);
        B.call_indirect fb (Var h) [];
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_fault outcome
    (function Machine.Bad_indirect_target _ -> true | _ -> false)
    "bad-indirect-target"

let test_fuel_exhaustion () =
  let pb = B.program () in
  let fb = B.func pb "main" ~params:[] in
  B.block fb "spin";
  B.jump fb "spin";
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let machine = Machine.create ~config:{ Machine.default_config with fuel = 1000 } prog in
  Testlib.check_fault (Machine.run machine)
    (function Machine.Fuel_exhausted -> true | _ -> false)
    "fuel-exhausted"

let test_heap_alloc () =
  let prog = Testlib.exec_program () in
  let machine = Machine.create prog in
  let a = Machine.alloc_heap machine 8 in
  let b = Machine.alloc_heap machine 8 in
  Alcotest.(check int64) "bump by 8 words" (Int64.add a 64L) b

(* Return-address corruption transfers control for real (the ROP
   substrate), and CET catches exactly that. *)
let test_ret_token_semantics () =
  let ghost = { Sil.Operand.vid = 7; vname = "ghost" } in
  (* [dst] picks where main keeps victim's return value: its own local
     [r] (vid 2), or [ghost], a vid that neither main nor any gadget
     declares. *)
  let build dst =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    List.iter
      (fun g -> B.global pb g i64 Sil.Prog.Zero)
      [ "g_out"; "g_skipped"; "g_mid"; "g_tail" ];
    let fb = B.func pb "target" ~params:[] in
    B.store fb (Sil.Place.Lglobal "g_out") (const 777);
    B.call fb "exit" [ const 7 ];
    B.ret fb None;
    B.seal fb;
    (* A pivot to body:1 skips the entry block and body's first store. *)
    let fb = B.func pb "mid_gadget" ~params:[] in
    B.store fb (Sil.Place.Lglobal "g_skipped") (const 1);
    B.block fb "body";
    B.store fb (Sil.Place.Lglobal "g_skipped") (const 2);
    B.store fb (Sil.Place.Lglobal "g_mid") (const 33);
    B.call fb "exit" [ const 8 ];
    B.ret fb None;
    B.seal fb;
    (* A pivot to the entry block's terminator runs only its jump, which
       must resolve among term_gadget's blocks, not the caller's. *)
    let fb = B.func pb "term_gadget" ~params:[] in
    B.store fb (Sil.Place.Lglobal "g_skipped") (const 3);
    B.jump fb "tail";
    B.block fb "tail";
    B.store fb (Sil.Place.Lglobal "g_tail") (const 44);
    B.call fb "exit" [ const 9 ];
    B.ret fb None;
    B.seal fb;
    let fb = B.func pb "victim" ~params:[ ("x", i64) ] in
    let y = B.local fb "y" i64 in
    B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 0x5EEC);
    B.ret fb (Some (Var y));
    B.seal fb;
    let fb = B.func pb "main" ~params:[] in
    let a = B.local fb "a" i64 in
    let b = B.local fb "b" i64 in
    let r = B.local fb "r" i64 in
    B.set fb a (const 10);
    B.set fb b (const 20);
    B.call fb ~dst:(match dst with `R -> r | `Ghost -> ghost) "victim" [ const 1 ];
    B.halt fb;
    B.seal fb;
    B.build pb ~entry:"main"
  in
  (* Run with victim's return token replaced by [token m]; also returns
     main's frame words as they stand at exit. *)
  let run ?(cet = false) ?(dst = `R) token =
    let machine = Machine.create ~config:{ Machine.default_config with cet } (build dst) in
    ignore (Kernel.boot machine);
    let main_frame = ref None in
    machine.on_instr <-
      Some
        (fun m (loc : Sil.Loc.t) ->
          if Option.is_none !main_frame && String.equal loc.func "victim" then
            match Machine.frames m with
            | frame :: caller :: _ ->
              main_frame := Some caller;
              Machine.poke m frame.ret_slot (token m)
            | _ -> ());
    let outcome = Machine.run machine in
    let words =
      match !main_frame with
      | Some f ->
        Machine.Memory.read_block machine.mem f.frame_base
          (Machine.Layout.frame_words machine.layout "main")
      | None -> Alcotest.fail "victim never ran"
    in
    (machine, outcome, words)
  in
  let global m g = Machine.peek m (Machine.global_address m g) in
  let check_exit name code outcome =
    match outcome with
    | Machine.Exited c -> Alcotest.(check int64) (name ^ ": exit code") code c
    | Machine.Faulted f -> Alcotest.failf "%s: unexpected fault %s" name (Machine.fault_to_string f)
  in
  let at func block i m = Machine.instr_address m (Sil.Loc.make func block i) in
  (* Without CET the hijack lands in target(). *)
  let machine, outcome, _ = run (at "target" "entry" 0) in
  check_exit "entry pivot" 7L outcome;
  Alcotest.(check int64) "gadget executed" 777L (global machine "g_out");
  (* With CET the return is checked. *)
  let _, outcome, _ = run ~cet:true (at "target" "entry" 0) in
  Testlib.check_fault outcome Testlib.is_cet_violation "cet";
  (* Partway through a non-entry block of another function. *)
  let machine, outcome, _ = run (at "mid_gadget" "body" 1) in
  check_exit "mid-block pivot" 8L outcome;
  Alcotest.(check int64) "resumed at body:1" 33L (global machine "g_mid");
  Alcotest.(check int64) "earlier stores skipped" 0L (global machine "g_skipped");
  (* Another function's terminator address. *)
  let machine, outcome, _ =
    run (fun m ->
        Machine.Layout.addr_of_point m.layout (Machine.Layout.Term_of ("term_gadget", "entry")))
  in
  check_exit "terminator pivot" 9L outcome;
  Alcotest.(check int64) "jump resolved in the gadget" 44L (global machine "g_tail");
  Alcotest.(check int64) "entry body skipped" 0L (global machine "g_skipped");
  (* Words that are not code addresses. *)
  List.iter
    (fun (name, token) ->
      let m, outcome, _ = run token in
      match outcome with
      | Machine.Faulted (Machine.Bad_return_target { target }) ->
        Alcotest.(check int64) (name ^ ": faulting target") (token m) target
      | Machine.Faulted f -> Alcotest.failf "%s: unexpected fault %s" name (Machine.fault_to_string f)
      | Machine.Exited _ -> Alcotest.failf "%s: returned to a non-code word" name)
    [
      ("data word", fun _ -> 0x1234L);
      ("unaligned code", fun m -> Int64.add (Machine.function_address m "target") 4L);
      ("bit 63", fun _ -> Int64.min_int);
      ( "past the code",
        fun m ->
          Int64.add Machine.Layout.code_base
            (Int64.of_int (8 * Array.length m.layout.points)) );
    ];
  (* The return value is delivered before the pivot, into the function
     that issued the call: main's [r], which target lacks. *)
  let machine, outcome, words = run (at "target" "entry" 0) in
  check_exit "pivot with dst" 7L outcome;
  let r_off = Machine.Layout.var_offset machine.layout "main" 2 in
  Array.iteri
    (fun i w ->
      Alcotest.(check int64) (Printf.sprintf "main word %d" i)
        (if i = r_off then 0x5EEDL else if i = 0 then 10L else if i = 1 then 20L else 0L)
        w)
    words;
  (* A dst vid that neither main nor the pivot target has: the write is
     skipped, with no exception and no slot of the frame written. *)
  let machine, outcome, words = run ~dst:`Ghost (at "target" "entry" 0) in
  check_exit "pivot with a ghost dst" 7L outcome;
  Alcotest.(check int64) "gadget executed" 777L (global machine "g_out");
  Alcotest.(check (array int64)) "main frame untouched" [| 10L; 20L; 0L |] words

let test_cost_accounting () =
  let run_cycles io =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    let fb = B.func pb "main" ~params:[] in
    B.call fb "getpid" [];
    B.halt fb;
    B.seal fb;
    let prog = B.build pb ~entry:"main" in
    let cost = { Machine.Cost.default with io_per_word = io } in
    let machine = Machine.create ~config:{ Machine.default_config with cost } prog in
    ignore (Kernel.boot machine);
    ignore (Machine.run machine);
    machine.stats.cycles
  in
  Alcotest.(check bool) "cycles counted" true (run_cycles 8 > 0);
  Alcotest.(check int) "io cost irrelevant without io" (run_cycles 8) (run_cycles 80)

(* A name that does not resolve is decoded, not rejected: the program
   loads and runs while the instruction naming it is not executed, and
   executing it raises the lookup's [Invalid_argument]. *)
let test_unresolved_names_raise_when_executed () =
  let x = { vid = 0; vname = "x" } in
  let program taken (bad : Sil.Instr.t) : Sil.Prog.t =
    let block label instrs term : Sil.Func.block =
      { label; instrs = Array.of_list instrs; term }
    in
    let main : Sil.Func.t =
      {
        fname = "main";
        params = [];
        locals = [ (x, i64) ];
        kind = App_code;
        blocks =
          [
            block "entry" [] (Branch (Const taken, "bad", "ok"));
            block "bad" [ bad ] Halt;
            block "ok" [] Halt;
          ];
      }
    in
    let funcs = Hashtbl.create 1 in
    Hashtbl.replace funcs "main" main;
    { structs = Sil.Types.struct_env_create (); globals = []; funcs; entry = "main" }
  in
  List.iter
    (fun ((bad : Sil.Instr.t), msg) ->
      Testlib.check_exit (Machine.run (Machine.create (program 0L bad)));
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Machine.run (Machine.create (program 1L bad)))))
    [
      (Assign (x, Use (Global "nope")), "Layout.global_addr: unknown global nope");
      (Assign (x, Use (Var { vid = 7; vname = "ghost" })), "Layout.var_offset: main has no var #7");
      (Assign (x, Use (Func_addr "nofn")), "Layout.func_entry: unknown function nofn");
      (Call { dst = None; target = Direct "nofn"; args = [] }, "Layout.code: unknown function nofn");
      ( Store (Lfield (Var x, "nostruct", "f"), Const 1L),
        "Types.find_struct: unknown struct nostruct" );
    ]

let suites =
  [
    ( "machine",
      [
        Alcotest.test_case "memory words" `Quick test_memory_words;
        Alcotest.test_case "memory strings" `Quick test_memory_strings;
        Alcotest.test_case "layout" `Quick test_layout;
        Alcotest.test_case "rodata interning" `Quick test_rodata_interning;
        Alcotest.test_case "arithmetic + branches" `Quick test_arith_and_branches;
        Alcotest.test_case "calls and return values" `Quick test_call_return_values;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "indirect call resolution" `Quick test_indirect_call_resolution;
        Alcotest.test_case "bad indirect target faults" `Quick
          test_bad_indirect_target_faults;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "heap allocation" `Quick test_heap_alloc;
        Alcotest.test_case "return-token semantics (ROP + CET)" `Quick
          test_ret_token_semantics;
        Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
        Alcotest.test_case "unresolved names raise when executed" `Quick
          test_unresolved_names_raise_when_executed;
      ] );
  ]
