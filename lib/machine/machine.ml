(* The simulated machine: interprets a SIL program over concrete,
   corruptible memory.

   Faithfulness properties that matter for the reproduction:
   - all locals live in stack memory at concrete addresses (an attacker
     write primitive can corrupt any variable, as in the paper's threat
     model);
   - return addresses are plain words in stack memory, read back on
     [Ret] — overwriting one performs a real control transfer (ROP);
   - function pointers are code addresses; indirect calls resolve
     whatever address the loaded word holds, so corrupted pointers and
     out-of-bounds index reads (NEWTON) redirect control for real;
   - CET, when enabled, keeps a shadow copy of return addresses outside
     the corruptible memory and faults on mismatch;
   - syscall stubs do not execute as code: invoking one enters the
     kernel handler installed by the embedder (seccomp, tracing and the
     BASTION monitor all live behind that handler). *)

module Memory = Memory
module Layout = Layout
module Cost = Cost

type fault =
  | Cet_violation of { expected : int64; actual : int64 }
  | Cfi_violation of { callsite : Sil.Loc.t; target : int64 }
  | Seccomp_kill of { sysno : int }
  | Monitor_kill of { context : string; detail : string }
  | Bad_indirect_target of { callsite : Sil.Loc.t; target : int64 }
  | Bad_return_target of { target : int64 }
  | Fuel_exhausted

exception Killed of fault

let fault_to_string = function
  | Cet_violation { expected; actual } ->
    Printf.sprintf "CET shadow-stack violation (expected %Lx, got %Lx)" expected actual
  | Cfi_violation { callsite; target } ->
    Printf.sprintf "LLVM-CFI violation at %s (target %Lx)" (Sil.Loc.to_string callsite) target
  | Seccomp_kill { sysno } -> Printf.sprintf "seccomp SECCOMP_RET_KILL (syscall %d)" sysno
  | Monitor_kill { context; detail } ->
    Printf.sprintf "BASTION monitor kill: %s context violated (%s)" context detail
  | Bad_indirect_target { callsite; target } ->
    Printf.sprintf "indirect call to non-function address %Lx at %s" target
      (Sil.Loc.to_string callsite)
  | Bad_return_target { target } ->
    Printf.sprintf "return to non-code address %Lx" target
  | Fuel_exhausted -> "fuel exhausted"

type outcome = Exited of int64 | Faulted of fault

(* A frame caches the code records of its current position: [fcode] is
   the function, [fblock] a block of [fcode] and [findex] an index into
   its instructions (the instruction count denotes the terminator).
   Every transition that moves a frame to another block or function
   ([enter], [goto], [pop_frame]) sets all three together. *)
type frame = {
  mutable fcode : Layout.func_code;
  mutable fblock : Layout.block_code;
  mutable findex : int;
  frame_base : int64;
  ret_slot : int64;  (** address of this frame's return-address word; 0 for entry *)
  fdst : Sil.Operand.var option;  (** caller variable receiving the return value *)
  mutable in_flight_args : int64 array;
      (** evaluated arguments of the call this frame currently has in
          flight (the "argument registers" at that callsite) *)
  mutable in_flight_callsite : int64;  (** code address of that call instr *)
}

let frame_func (frame : frame) = frame.fcode.func.fname

let frame_loc (frame : frame) =
  Sil.Loc.make frame.fcode.func.fname frame.fblock.block.label frame.findex

type stats = {
  mutable instrs : int;
  mutable calls : int;
  mutable indirect_calls : int;
  mutable rets : int;
  mutable syscalls : int;
  mutable cycles : int;
}

let stats_create () =
  { instrs = 0; calls = 0; indirect_calls = 0; rets = 0; syscalls = 0; cycles = 0 }

type config = { cet : bool; cost : Cost.t; fuel : int }

let default_config = { cet = false; cost = Cost.default; fuel = 500_000_000 }

type t = {
  prog : Sil.Prog.t;
  layout : Layout.t;
  mem : Memory.t;
  config : config;
  stats : stats;
  shadow_stack : Cet.Shadow_stack.t;
  mutable sp : int64;
  mutable brk : int64;
  mutable frames : frame list;  (** top of stack first *)
  mutable abi_regs : int64 array;  (** args of the most recent call *)
  mutable trap_rip : int64;  (** code address of the most recent call instr *)
  mutable on_syscall : (t -> sysno:int -> args:int64 array -> int64) option;
  mutable on_intrinsic : (t -> name:string -> args:int64 array -> int64) option;
  mutable on_indirect_call :
    (t -> callsite:Sil.Loc.t -> target:int64 -> resolved:string option -> unit) option;
  mutable on_instr : (t -> Sil.Loc.t -> unit) option;
}

let charge (t : t) n = t.stats.cycles <- t.stats.cycles + n

(* ------------------------------------------------------------------ *)
(* Creation and data initialisation                                    *)

let init_globals (t : t) =
  List.iter
    (fun (g : Sil.Prog.global) ->
      let addr = Layout.global_addr t.layout g.gname in
      match g.ginit with
      | Zero -> ()
      | Word v -> Memory.write t.mem addr v
      | Words ws -> Memory.write_block t.mem addr (Array.of_list ws)
      | Str s ->
        let saddr = Layout.intern_string t.layout t.mem s in
        Memory.write t.mem addr saddr
      | Fptr f -> Memory.write t.mem addr (Layout.func_entry t.layout f))
    t.prog.globals

let create ?(config = default_config) (prog : Sil.Prog.t) : t =
  let layout = Layout.build prog in
  let t =
    {
      prog;
      layout;
      mem = Memory.create ();
      config;
      stats = stats_create ();
      shadow_stack = Cet.Shadow_stack.create ();
      sp = Layout.stack_base;
      brk = Layout.heap_base;
      frames = [];
      abi_regs = [||];
      trap_rip = 0L;
      on_syscall = None;
      on_intrinsic = None;
      on_indirect_call = None;
      on_instr = None;
    }
  in
  init_globals t;
  t

(* ------------------------------------------------------------------ *)
(* Hot helpers                                                         *)

(* The interpreter's word accesses and binop evaluation live here and
   are inlined into each step: with the -opaque separate compilation of
   dev builds nothing is inlined across modules, and a call into
   [Memory] or [Sil.Instr] boxes its int64 arguments and result.  Inlined,
   addresses and intermediate values stay unboxed; a word is boxed once,
   when a computed value is stored.  The page geometry and the page
   cache are Memory's (memory.mli); anything but an aligned access to
   the cached page goes through it. *)

let[@inline] page_no addr = Int64.to_int (Int64.shift_right_logical addr 12)
let[@inline] cell addr = (Int64.to_int addr lsr 3) land (Memory.page_words - 1)

let[@inline] page (m : Memory.t) pno =
  let p = m.last in
  if p.pno = pno then p else Memory.find m pno

let[@inline] load (t : t) addr =
  if Int64.to_int addr land 7 = 0 then
    Array.unsafe_get (page t.mem (page_no addr)).cells (cell addr)
  else Memory.read t.mem addr

(* Overwriting a mapped word with a non-zero one (most stores) leaves
   the mapped count alone and is done here. *)
let[@inline] store (t : t) addr v =
  if Int64.to_int addr land 7 = 0 then begin
    let pno = page_no addr and i = cell addr in
    let cells = (page t.mem pno).cells in
    if (not (Int64.equal v 0L)) && not (Int64.equal (Array.unsafe_get cells i) 0L) then
      Array.unsafe_set cells i v
    else
      (* The literal is a static box: storing zero allocates nothing. *)
      Memory.set t.mem pno i (if Int64.equal v 0L then 0L else v)
  end
  else Memory.write t.mem addr v

(* [addr + 8*words], as [Memory.addr_add]. *)
let[@inline] offset addr words = Int64.add addr (Int64.mul 8L (Int64.of_int words))

(* Sil.Instr.eval_binop, which stays the reference. *)
let[@inline] binop (op : Sil.Instr.binop) a b =
  let open Int64 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if equal b 0L then 0L else div a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int b land 63)
  | Shr -> shift_right_logical a (to_int b land 63)
  | Eq -> if equal a b then 1L else 0L
  | Ne -> if equal a b then 0L else 1L
  | Lt -> if compare a b < 0 then 1L else 0L
  | Le -> if compare a b <= 0 then 1L else 0L
  | Gt -> if compare a b > 0 then 1L else 0L
  | Ge -> if compare a b >= 0 then 1L else 0L

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let top_frame (t : t) =
  match t.frames with
  | f :: _ -> f
  | [] -> invalid_arg "Machine.top_frame: no frames"

let bad_var (frame : frame) (v : Sil.Operand.var) = raise (Layout.no_var (frame_func frame) v.vid)

let var_addr (frame : frame) (v : Sil.Operand.var) =
  let off = Layout.slot frame.fcode v.vid in
  if off < 0 then bad_var frame v;
  offset frame.frame_base off

(* A string literal's rodata address, interned at its first evaluation. *)
let intern (t : t) (c : Layout.cstr) =
  if Int64.equal c.at 0L then c.at <- Layout.intern_string t.layout t.mem c.text;
  c.at

let[@inline] eval (t : t) (frame : frame) (op : Layout.operand) : int64 =
  match op with
  | Imm n -> n
  | Slot off -> load t (offset frame.frame_base off)
  | Word a -> load t a
  | Str c -> intern t c
  | Fail e -> raise e

let eval_all (t : t) (frame : frame) ops = List.iter (fun op -> ignore (eval t frame op)) ops

(* Every arm computes its address with [offset] (a global's and a
   pointer's at offset 0), so the match is an unboxed int64 that does
   not box on its way into [load] or [store]. *)
let[@inline] place_addr (t : t) (frame : frame) (p : Layout.place) : int64 =
  match p with
  | Pslot off -> offset frame.frame_base off
  | Pword a -> offset a 0
  | Pfield (base, off) -> offset (eval t frame base) off
  | Pindex (base, index, size) ->
    let b = eval t frame base in
    let i = Int64.to_int (eval t frame index) in
    offset b (i * size)
  | Pderef p -> offset (eval t frame p) 0
  | Pfail (ops, e) ->
    eval_all t frame ops;
    raise e

(* A binop evaluates its right operand first, as the reference
   interpreter did (OCaml evaluates application arguments right to
   left), so literals intern in the same order. *)
let[@inline] eval_rvalue (t : t) (frame : frame) (rv : Layout.rvalue) : int64 =
  match rv with
  | Use op -> eval t frame op
  | Load p -> load t (place_addr t frame p)
  | Addr_of p -> place_addr t frame p
  | Binop (op, a, b) ->
    let b = eval t frame b in
    let a = eval t frame a in
    binop op a b

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

(* Allocate [code]'s frame below [t.sp] and make it the innermost. *)
let enter (t : t) (code : Layout.func_code) ~ret_slot ~dst =
  Layout.decode t.layout code;
  t.sp <- Int64.sub t.sp (Int64.of_int (8 * code.frame_words));
  let frame =
    {
      fcode = code;
      fblock = code.blocks.(0);
      findex = 0;
      frame_base = t.sp;
      ret_slot;
      fdst = dst;
      in_flight_args = [||];
      in_flight_callsite = 0L;
    }
  in
  t.frames <- frame :: t.frames;
  frame

let push_frame (t : t) ~(callee : Layout.func_code) ~(args : int64 array)
    ~(ret_token : int64) ~(dst : Sil.Operand.var option) =
  t.sp <- Int64.sub t.sp 8L;
  let ret_slot = t.sp in
  store t ret_slot ret_token;
  (* The CET push rides the call micro-ops for free; only the
     return-side compare costs a cycle. *)
  if t.config.cet then Cet.Shadow_stack.push t.shadow_stack ret_token;
  let frame = enter t callee ~ret_slot ~dst in
  (* Copy arguments into parameter slots. *)
  let rec copy i = function
    | ((v : Sil.Operand.var), _) :: rest when i < Array.length args ->
      let off = Layout.slot callee v.vid in
      if off < 0 then bad_var frame v;
      store t (offset frame.frame_base off) args.(i);
      copy (i + 1) rest
    | _ -> ()
  in
  copy 0 callee.func.params

exception Program_exit of int64

let pop_frame (t : t) (ret_val : int64) =
  match t.frames with
  | [] -> raise (Program_exit ret_val)
  | frame :: rest ->
    t.stats.rets <- t.stats.rets + 1;
    charge t t.config.cost.ret;
    if Int64.equal frame.ret_slot 0L then raise (Program_exit ret_val);
    let token = load t frame.ret_slot in
    if t.config.cet then begin
      charge t t.config.cost.cet_op;
      Cet.Shadow_stack.pop_check t.shadow_stack ~actual:token
    end;
    t.frames <- rest;
    t.sp <- Int64.add frame.ret_slot 8L;
    (match (rest, frame.fdst) with
    | caller :: _, Some v ->
      (* Deliver the return value into the caller's current function,
         before any pivot below; skip a vid that function lacks. *)
      let off = Layout.slot caller.fcode v.vid in
      if off >= 0 then store t (offset caller.frame_base off) ret_val
    | _ -> ());
    (* Transfer control to the (possibly corrupted) return token.  A
       token pointing into another function models a ROP pivot: the
       gadget executes with the attacker-controlled stack. *)
    match Layout.code_at t.layout token with
    | Some r -> (
      match rest with
      | caller :: _ ->
        Layout.decode t.layout r.rfunc;
        caller.fcode <- r.rfunc;
        caller.fblock <- r.rblock;
        caller.findex <- r.rindex
      | [] -> raise (Program_exit ret_val))
    | None -> raise (Killed (Bad_return_target { target = token }))

(* ------------------------------------------------------------------ *)
(* Built-in intrinsics                                                 *)

(** Bump-allocate [words] words of heap; used by the malloc intrinsic and
    by the kernel's mmap implementation. *)
let alloc_heap (t : t) words =
  let addr = t.brk in
  t.brk <- Int64.add t.brk (Int64.of_int (8 * max 1 words));
  addr

let run_intrinsic (t : t) name (args : int64 array) : int64 =
  match name with
  | "malloc" ->
    let words = if Array.length args > 0 then Int64.to_int args.(0) else 1 in
    alloc_heap t words
  | _ -> (
    match t.on_intrinsic with
    | Some h -> h t ~name ~args
    | None -> 0L)

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)

(* Evaluate call arguments left to right (interning order matters). *)
let eval_args (t : t) (frame : frame) (args : Layout.operand array) =
  let n = Array.length args in
  if n = 0 then [||]
  else begin
    let argv = Array.make n 0L in
    for i = 0 to n - 1 do
      argv.(i) <- eval t frame args.(i)
    done;
    argv
  end

(* Deliver a syscall's or intrinsic's result and step past the call. *)
let finish_call (t : t) (frame : frame) (dst : Layout.place option) result =
  (match dst with Some p -> store t (place_addr t frame p) result | None -> ());
  frame.findex <- frame.findex + 1

let exec_call (t : t) (frame : frame) (c : Layout.call) =
  let argv = eval_args t frame c.args in
  let callsite_addr = frame.fblock.addrs.(frame.findex) in
  t.abi_regs <- argv;
  t.trap_rip <- callsite_addr;
  frame.in_flight_args <- argv;
  frame.in_flight_callsite <- callsite_addr;
  t.stats.calls <- t.stats.calls + 1;
  let callee =
    match c.target with
    | Direct code -> code
    | Unknown e -> raise e
    | Indirect op ->
      t.stats.indirect_calls <- t.stats.indirect_calls + 1;
      let addr = eval t frame op in
      let resolved = Layout.code_of_entry_addr t.layout addr in
      (match t.on_indirect_call with
      | Some h ->
        h t ~callsite:(frame_loc frame) ~target:addr
          ~resolved:(Option.map (fun (c : Layout.func_code) -> c.func.fname) resolved)
      | None -> ());
      (match resolved with
      | Some c -> c
      | None ->
        raise (Killed (Bad_indirect_target { callsite = frame_loc frame; target = addr })))
  in
  (* Intrinsics are inlined runtime-library snippets: they cost their
     body, not a call.  Real calls and syscalls pay the call overhead. *)
  (match callee.func.kind with
  | Intrinsic _ -> ()
  | App_code | Syscall_stub _ -> charge t t.config.cost.call);
  match callee.func.kind with
  | Syscall_stub sysno ->
    t.stats.syscalls <- t.stats.syscalls + 1;
    let result =
      match t.on_syscall with
      | Some h -> h t ~sysno ~args:argv
      | None -> 0L
    in
    finish_call t frame c.dst result
  | Intrinsic name ->
    charge t t.config.cost.intrinsic;
    finish_call t frame c.dst (run_intrinsic t name argv)
  | App_code ->
    (* The return token is the address after the call: the next
       instruction, or the block's terminator.  Advance the caller past
       the call before pushing, so its position is correct if the callee
       is re-entered recursively. *)
    let token = frame.fblock.addrs.(frame.findex + 1) in
    frame.findex <- frame.findex + 1;
    push_frame t ~callee ~args:argv ~ret_token:token ~dst:c.ret_var

(* Move [frame] to the [k]th block of its function. *)
let goto (frame : frame) k label =
  if k < 0 then
    invalid_arg (Printf.sprintf "Machine: %s has no block %s" (frame_func frame) label);
  frame.fblock <- frame.fcode.blocks.(k);
  frame.findex <- 0

let exec_terminator (t : t) (frame : frame) (term : Layout.term) =
  match term with
  | Jump l -> goto frame frame.fblock.succs.(0) l
  | Branch (cond, l1, l2) ->
    let c = eval t frame cond in
    charge t t.config.cost.instr;
    if not (Int64.equal c 0L) then goto frame frame.fblock.succs.(0) l1
    else goto frame frame.fblock.succs.(1) l2
  | Ret op -> pop_frame t (eval t frame op)
  | Halt -> raise (Program_exit 0L)

(* The value of a [Set] is evaluated before its place, as the
   reference interpreter did. *)
let step (t : t) =
  let frame = top_frame t in
  let bc = frame.fblock in
  let i = frame.findex in
  if i >= Array.length bc.dinstrs then exec_terminator t frame bc.dterm
  else begin
    (match t.on_instr with Some h -> h t (frame_loc frame) | None -> ());
    t.stats.instrs <- t.stats.instrs + 1;
    match Array.unsafe_get bc.dinstrs i with
    | Set (p, rv) ->
      charge t t.config.cost.instr;
      let v = eval_rvalue t frame rv in
      store t (place_addr t frame p) v;
      frame.findex <- i + 1
    | Call c -> exec_call t frame c
  end

(** Run the program from its entry point to completion. *)
let run (t : t) : outcome =
  let entry = Layout.code t.layout t.prog.entry in
  t.sp <- Layout.stack_base;
  t.frames <- [];
  ignore (enter t entry ~ret_slot:0L ~dst:None);
  let budget = ref t.config.fuel in
  try
    let rec loop () =
      if !budget <= 0 then raise (Killed Fuel_exhausted);
      decr budget;
      step t;
      loop ()
    in
    loop ()
  with
  | Program_exit v -> Exited v
  | Killed fault -> Faulted fault
  | Cet.Shadow_stack.Violation { expected; actual } ->
    Faulted (Cet_violation { expected; actual })
  | Cet.Shadow_stack.Underflow -> Faulted (Cet_violation { expected = 0L; actual = 0L })

(* ------------------------------------------------------------------ *)
(* Introspection used by the kernel's ptrace layer and by attacks      *)

(** Stack frames, innermost first, with the *memory-resident* return
    address of each (reading it reflects any corruption). *)
let frames (t : t) = t.frames

let read_ret_addr (t : t) (frame : frame) =
  if Int64.equal frame.ret_slot 0L then None
  else Some (Memory.read t.mem frame.ret_slot)

let peek (t : t) addr = Memory.read t.mem addr
let poke (t : t) addr v = Memory.write t.mem addr v
let read_string (t : t) addr = Memory.read_string t.mem addr

let global_address (t : t) name = Layout.global_addr t.layout name
let function_address (t : t) name = Layout.func_entry t.layout name
let instr_address (t : t) loc = Layout.addr_of_loc t.layout loc

(** Address of a local variable of a live frame, searching innermost
    frames first.  Used by attack scripts to corrupt specific variables. *)
let local_address (t : t) ~func ~var =
  let rec find = function
    | [] -> None
    | (f : frame) :: rest ->
      if String.equal (frame_func f) func then
        let v =
          List.find_opt
            (fun ((v : Sil.Operand.var), _) -> String.equal v.vname var)
            (Sil.Func.all_vars f.fcode.func)
        in
        match v with
        | Some (v, _) -> Some (var_addr f v)
        | None -> find rest
      else find rest
  in
  find t.frames
