(** Address-space layout and code addressing.

    Every instruction and block terminator receives a concrete code
    address, giving the machine a real instruction pointer: return
    addresses are plain words, function pointers are code addresses,
    and monitor metadata is keyed by callsite address exactly as the
    paper keys it by binary offset.

    [build] also decodes the program once: each function gets a
    [func_code] record holding what an interpreter step needs, so the
    machine resolves no names while it runs. *)

type code_point =
  | Instr_at of Sil.Loc.t
  | Term_of of string * string  (** function, block *)

val code_base : int64
val rodata_base : int64
val data_base : int64
val heap_base : int64

(** The $gs-relative BASTION shadow region (hidden from the attacker). *)
val shadow_base : int64

val stack_base : int64

(** {2 Decoded code}

    What an interpreter step executes.  {!decode} resolves every name
    of a function once: a local to its slot offset, a global to its
    word address, a function to its entry address or code record, a
    struct field to its word offset and an element type to its size.
    A name that does not resolve decodes to the [Invalid_argument] its
    lookup raises, raised when the instruction executes, after the
    operands evaluated before it. *)

(** A string literal, interned in rodata at its first evaluation
    ([at] is [0L] until then), so the interning order is the order of
    execution. *)
type cstr = { text : string; mutable at : int64 }

type operand =
  | Imm of int64  (** [Const], [Null] ([0L]) and a [Func_addr]'s entry *)
  | Slot of int  (** a local: its slot offset in words from the frame base *)
  | Word of int64  (** a scalar global: the word at this address *)
  | Str of cstr
  | Fail of exn  (** raised when evaluated *)

type place =
  | Pslot of int
  | Pword of int64
  | Pfield of operand * int  (** base, field offset in words *)
  | Pindex of operand * operand * int  (** base, index, element size in words *)
  | Pderef of operand
  | Pfail of operand list * exn  (** evaluate these in order, then raise *)

type rvalue =
  | Use of operand
  | Load of place
  | Addr_of of place
  | Binop of Sil.Instr.binop * operand * operand

type instr =
  | Set of place * rvalue
      (** an [Assign] (to a [Pslot]) or a [Store]; the value is
          evaluated before the place *)
  | Call of call

and call = {
  dst : place option;  (** where a syscall or intrinsic result goes *)
  ret_var : Sil.Operand.var option;
      (** the variable a returning callee delivers into, resolved in
          the caller's function at return time *)
  target : target;
  args : operand array;
}

and target =
  | Direct of func_code
  | Indirect of operand
  | Unknown of exn  (** a direct callee that does not exist *)

and term =
  | Jump of string
  | Branch of operand * string * string
  | Ret of operand  (** [Imm 0L] for a bare return *)
  | Halt

(** A block with its code addresses. *)
and block_code = {
  block : Sil.Func.block;
  addrs : int64 array;
      (** one address per instruction, then the terminator's (last) *)
  succs : int array;
      (** indices in [func_code.blocks] of the [Jump] target, or of the
          [Branch] targets in order; [-1] for a label the function lacks *)
  mutable dinstrs : instr array;  (** [block.instrs] decoded *)
  mutable dterm : term;  (** [block.term] decoded *)
}

(** A function as the machine executes it. *)
and func_code = {
  func : Sil.Func.t;
  entry : int64;
  frame_words : int;  (** frame size in words (params + locals) *)
  var_offsets : int array;
      (** slot offset in words from the frame base, indexed by [vid];
          [-1] where the function has no such variable *)
  blocks : block_code array;  (** layout order; the entry block first *)
  mutable decoded : bool;
      (** whether [dinstrs] and [dterm] of every block are filled in *)
}

(** The position of a code address. [rindex] equals the block's
    instruction count for the terminator. *)
type code_ref = { rfunc : func_code; rblock : block_code; rindex : int; rpoint : code_point }

type t = {
  prog : Sil.Prog.t;
  code : (string, func_code) Hashtbl.t;
  points : code_ref array;  (** by [(addr - code_base) / 8] *)
  global_addr : (string, int64) Hashtbl.t;
  global_size : (string, int) Hashtbl.t;
  rodata : (string, int64) Hashtbl.t;
  mutable rodata_next : int64;
}

val build : Sil.Prog.t -> t

(** Decode a function's blocks, once; a function must be decoded before
    a frame executes it. *)
val decode : t -> func_code -> unit

(** @raise Invalid_argument for unknown functions. *)
val code : t -> string -> func_code

(** The position of a code address, if it is one. *)
val code_at : t -> int64 -> code_ref option

(** The function whose entry address this is, if any. *)
val code_of_entry_addr : t -> int64 -> func_code option

(** [slot fc vid] is [fc]'s slot offset for [vid], or [-1] if it has none. *)
val slot : func_code -> int -> int

val addr_of_point : t -> code_point -> int64
val addr_of_loc : t -> Sil.Loc.t -> int64
val point_of_addr : t -> int64 -> code_point option

(** @raise Invalid_argument for unknown functions. *)
val func_entry : t -> string -> int64

(** The function a code address belongs to, if any. *)
val func_of_addr : t -> int64 -> string option

(** Resolve an address used as a call target: must be a function entry. *)
val func_of_entry_addr : t -> int64 -> string option

val global_addr : t -> string -> int64
val global_words : t -> string -> int

(** Intern a string literal in rodata (idempotent per content). *)
val intern_string : t -> Memory.t -> string -> int64

(** Word offset of a variable slot from its frame base.
    @raise Invalid_argument [no_var fname vid] if the function has none. *)
val var_offset : t -> string -> int -> int

(** The exception for a vid a function lacks. *)
val no_var : string -> int -> exn

(** Frame size in words (locals + params). *)
val frame_words : t -> string -> int
