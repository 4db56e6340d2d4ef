(* Address-space layout and code addressing.

   Every SIL instruction and block terminator receives a concrete code
   address, so the simulated machine has a real instruction pointer:
   return addresses are plain words spilled to stack memory (corruptible,
   as on real hardware without CET), function pointers are code
   addresses, and BASTION's metadata can be keyed by callsite address
   exactly as the paper keys it by binary offset.

   The layout is also the machine's decoded program: one [func_code]
   record per function carries everything an interpreter step needs
   (block records with their instruction addresses and terminator
   targets, variable slot offsets, frame size), so a step does no name
   lookup. *)

type code_point =
  | Instr_at of Sil.Loc.t
  | Term_of of string * string  (** function, block *)

let code_base = 0x0040_0000L
let rodata_base = 0x0050_0000L
let data_base = 0x0060_0000L
let heap_base = 0x0070_0000L
(* shadow_base: the $gs-relative BASTION shadow region *)
let shadow_base = 0x2000_0000L
let stack_base = 0x7fff_0000L

(* Decoded code.  Names resolve once, when a function is first
   entered: a local to its slot offset, a global to its address, a
   function to its entry or code record, a struct field to its word
   offset, an element type to its size.  A name that does not resolve
   decodes to the exception the name lookup raised, raised only when
   the instruction executes, after the operands evaluated before it. *)

type cstr = { text : string; mutable at : int64 }

type operand =
  | Imm of int64
  | Slot of int
  | Word of int64
  | Str of cstr
  | Fail of exn

type place =
  | Pslot of int
  | Pword of int64
  | Pfield of operand * int
  | Pindex of operand * operand * int
  | Pderef of operand
  | Pfail of operand list * exn

type rvalue =
  | Use of operand
  | Load of place
  | Addr_of of place
  | Binop of Sil.Instr.binop * operand * operand

type instr =
  | Set of place * rvalue
  | Call of call

and call = {
  dst : place option;
  ret_var : Sil.Operand.var option;
  target : target;
  args : operand array;
}

and target = Direct of func_code | Indirect of operand | Unknown of exn

and term =
  | Jump of string
  | Branch of operand * string * string
  | Ret of operand
  | Halt

and block_code = {
  block : Sil.Func.block;
  addrs : int64 array;
  succs : int array;
  mutable dinstrs : instr array;
  mutable dterm : term;
}

and func_code = {
  func : Sil.Func.t;
  entry : int64;
  frame_words : int;
  var_offsets : int array;
  blocks : block_code array;
  mutable decoded : bool;
}

type code_ref = { rfunc : func_code; rblock : block_code; rindex : int; rpoint : code_point }

type t = {
  prog : Sil.Prog.t;
  code : (string, func_code) Hashtbl.t;
  points : code_ref array;
  global_addr : (string, int64) Hashtbl.t;
  global_size : (string, int) Hashtbl.t;
  rodata : (string, int64) Hashtbl.t;
  mutable rodata_next : int64;
}

let block_index (blocks : Sil.Func.block list) label =
  let rec go i = function
    | [] -> -1
    | (b : Sil.Func.block) :: rest -> if String.equal b.label label then i else go (i + 1) rest
  in
  go 0 blocks

(* Lay out one function at [base]: one word per instruction and per
   terminator, then slot offsets for params then locals. *)
let func_code structs (f : Sil.Func.t) base =
  let next = ref base in
  let blocks =
    Array.of_list
      (List.map
         (fun (b : Sil.Func.block) ->
           let addrs =
             Array.init (Array.length b.instrs + 1) (fun i ->
                 Int64.add !next (Int64.of_int (8 * i)))
           in
           next := Int64.add !next (Int64.of_int (8 * Array.length addrs));
           let succs =
             match b.term with
             | Jump l -> [| block_index f.blocks l |]
             | Branch (_, l1, l2) -> [| block_index f.blocks l1; block_index f.blocks l2 |]
             | Ret _ | Halt -> [||]
           in
           { block = b; addrs; succs; dinstrs = [||]; dterm = Halt })
         f.blocks)
  in
  let vars = Sil.Func.all_vars f in
  let max_vid = List.fold_left (fun m ((v : Sil.Operand.var), _) -> max m v.vid) (-1) vars in
  let var_offsets = Array.make (max_vid + 1) (-1) in
  let off = ref 0 in
  List.iter
    (fun ((v : Sil.Operand.var), ty) ->
      if v.vid >= 0 then var_offsets.(v.vid) <- !off;
      off := !off + max 1 (Sil.Types.size_words structs ty))
    vars;
  ({ func = f; entry = base; frame_words = !off; var_offsets; blocks; decoded = false }, !next)

let build (prog : Sil.Prog.t) : t =
  (* Code addresses: functions in deterministic order. *)
  let code = Hashtbl.create 64 in
  let next = ref code_base in
  let funcs =
    List.map
      (fun (f : Sil.Func.t) ->
        let fc, after = func_code prog.structs f !next in
        Hashtbl.replace code f.fname fc;
        next := after;
        fc)
      (Sil.Prog.functions prog)
  in
  let points =
    List.concat_map
      (fun fc ->
        List.concat_map
          (fun bc ->
            let n = Array.length bc.block.instrs in
            List.init (n + 1) (fun i ->
                let rpoint =
                  if i < n then Instr_at (Sil.Loc.make fc.func.fname bc.block.label i)
                  else Term_of (fc.func.fname, bc.block.label)
                in
                { rfunc = fc; rblock = bc; rindex = i; rpoint }))
          (Array.to_list fc.blocks))
      funcs
    |> Array.of_list
  in
  let t =
    {
      prog;
      code;
      points;
      global_addr = Hashtbl.create 64;
      global_size = Hashtbl.create 64;
      rodata = Hashtbl.create 64;
      rodata_next = rodata_base;
    }
  in
  (* Globals. *)
  let gnext = ref data_base in
  List.iter
    (fun (g : Sil.Prog.global) ->
      let words = max 1 (Sil.Types.size_words prog.structs g.gty) in
      Hashtbl.replace t.global_addr g.gname !gnext;
      Hashtbl.replace t.global_size g.gname words;
      gnext := Int64.add !gnext (Int64.of_int (8 * words)))
    prog.globals;
  t

let find_code who t fname =
  match Hashtbl.find t.code fname with
  | c -> c
  | exception Not_found -> invalid_arg (who ^ ": unknown function " ^ fname)

let code t fname = find_code "Layout.code" t fname

let code_at t addr =
  let d = Int64.sub addr code_base in
  if
    Int64.compare d 0L >= 0
    && Int64.equal (Int64.logand d 7L) 0L
    && Int64.compare d (Int64.of_int (8 * Array.length t.points)) < 0
  then Some t.points.(Int64.to_int d / 8)
  else None

let addr_of_point t point =
  let unknown () = invalid_arg "Layout.addr_of_point: unknown code point" in
  let func, label, index =
    match point with
    | Instr_at loc -> (loc.func, loc.block, loc.index)
    | Term_of (func, label) -> (func, label, -1)
  in
  match Hashtbl.find_opt t.code func with
  | None -> unknown ()
  | Some fc ->
    let b = block_index fc.func.blocks label in
    if b < 0 then unknown ();
    let bc = fc.blocks.(b) in
    let n = Array.length bc.block.instrs in
    if index < 0 then bc.addrs.(n)
    else if index < n then bc.addrs.(index)
    else unknown ()

let addr_of_loc t loc = addr_of_point t (Instr_at loc)

let point_of_addr t addr = Option.map (fun r -> r.rpoint) (code_at t addr)

let func_entry t fname = (find_code "Layout.func_entry" t fname).entry

(** The function a code address belongs to, if any. *)
let func_of_addr t addr = Option.map (fun r -> r.rfunc.func.fname) (code_at t addr)

let code_of_entry_addr t addr =
  match code_at t addr with
  | Some r when Int64.equal r.rfunc.entry addr -> Some r.rfunc
  | Some _ | None -> None

(** Resolve a code address used as a call target: it must be a function
    entry address. *)
let func_of_entry_addr t addr =
  Option.map (fun fc -> fc.func.fname) (code_of_entry_addr t addr)

let global_addr t gname =
  match Hashtbl.find t.global_addr gname with
  | a -> a
  | exception Not_found -> invalid_arg ("Layout.global_addr: unknown global " ^ gname)

let global_words t gname =
  match Hashtbl.find_opt t.global_size gname with
  | Some n -> n
  | None -> invalid_arg ("Layout.global_words: unknown global " ^ gname)

(** Intern a string literal in rodata; idempotent per content. *)
let intern_string t (mem : Memory.t) s =
  match Hashtbl.find t.rodata s with
  | a -> a
  | exception Not_found ->
    let addr = t.rodata_next in
    let words = Memory.write_string mem addr s in
    t.rodata_next <- Int64.add addr (Int64.of_int (8 * (words + 1)));
    Hashtbl.replace t.rodata s addr;
    addr

let slot fc vid = if vid >= 0 && vid < Array.length fc.var_offsets then fc.var_offsets.(vid) else -1

let no_var fname vid =
  Invalid_argument (Printf.sprintf "Layout.var_offset: %s has no var #%d" fname vid)

let var_offset t fname vid =
  let o = slot (find_code "Layout.var_offset" t fname) vid in
  if o < 0 then raise (no_var fname vid);
  o

let frame_words t fname = (find_code "Layout.frame_words" t fname).frame_words

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* A name resolves as the public lookups resolve it; one that does not
   decodes to the exception they raise. *)
let lookup f x = match f x with v -> Ok v | exception (Invalid_argument _ as e) -> Error e

let var_slot fc (v : Sil.Operand.var) =
  let o = slot fc v.vid in
  if o >= 0 then Ok o else Error (no_var fc.func.fname v.vid)

let decode_operand t fc : Sil.Operand.t -> operand = function
  | Const n -> Imm n
  | Null -> Imm 0L
  | Cstr s -> Str { text = s; at = 0L }
  | Var v -> ( match var_slot fc v with Ok o -> Slot o | Error e -> Fail e)
  | Global g -> ( match lookup (global_addr t) g with Ok a -> Word a | Error e -> Fail e)
  | Func_addr fn -> ( match lookup (func_entry t) fn with Ok a -> Imm a | Error e -> Fail e)

let decode_place t fc : Sil.Place.t -> place =
  let op = decode_operand t fc in
  function
  | Lvar v -> ( match var_slot fc v with Ok o -> Pslot o | Error e -> Pfail ([], e))
  | Lglobal g -> ( match lookup (global_addr t) g with Ok a -> Pword a | Error e -> Pfail ([], e))
  | Lfield (base, sname, field) -> (
    let base = op base in
    match lookup (Sil.Types.field_offset t.prog.structs sname) field with
    | Ok off -> Pfield (base, off)
    | Error e -> Pfail ([ base ], e))
  | Lindex (base, index, elem_ty) -> (
    let base = op base and index = op index in
    match lookup (Sil.Types.size_words t.prog.structs) elem_ty with
    | Ok words -> Pindex (base, index, max 1 words)
    | Error e -> Pfail ([ base; index ], e))
  | Lderef p -> Pderef (op p)

let decode_instr t fc : Sil.Instr.t -> instr =
  let op = decode_operand t fc and place = decode_place t fc in
  function
  | Assign (v, rv) ->
    let rv : rvalue =
      match rv with
      | Use a -> Use (op a)
      | Load p -> Load (place p)
      | Addr_of p -> Addr_of (place p)
      | Binop (o, a, b) -> Binop (o, op a, op b)
    in
    Set (place (Lvar v), rv)
  | Store (p, a) -> Set (place p, Use (op a))
  | Call { dst; target; args } ->
    let target =
      match target with
      | Indirect a -> Indirect (op a)
      | Direct fn -> ( match lookup (code t) fn with Ok c -> Direct c | Error e -> Unknown e)
    in
    Call
      {
        dst = Option.map (fun v -> place (Lvar v)) dst;
        ret_var = dst;
        target;
        args = Array.of_list (List.map op args);
      }

let decode t fc =
  if not fc.decoded then begin
    let op = decode_operand t fc in
    Array.iter
      (fun bc ->
        bc.dinstrs <- Array.map (decode_instr t fc) bc.block.instrs;
        bc.dterm <-
          (match bc.block.term with
          | Jump l -> Jump l
          | Branch (c, l1, l2) -> Branch (op c, l1, l2)
          | Ret r -> Ret (match r with Some r -> op r | None -> Imm 0L)
          | Halt -> Halt))
      fc.blocks;
    fc.decoded <- true
  end
