(* Property-based tests (qcheck) on the core data structures and
   invariants, registered as alcotest cases. *)

let gen_addr = QCheck.map (fun n -> Int64.of_int (abs n land 0xFFFFF8)) QCheck.int
let gen_word = QCheck.map Int64.of_int QCheck.int

(* --- shadow memory behaves like a map -------------------------------- *)

let prop_shadow_model =
  QCheck.Test.make ~count:200 ~name:"shadow memory agrees with a model map"
    QCheck.(list (pair gen_addr gen_word))
    (fun ops ->
      let shadow = Bastion.Shadow_memory.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (addr, v) ->
          Bastion.Shadow_memory.set_shadow shadow ~addr ~value:v;
          Hashtbl.replace model addr v)
        ops;
      Hashtbl.fold
        (fun addr v acc ->
          acc && Bastion.Shadow_memory.shadow shadow ~addr = Some v)
        model true
      && Bastion.Shadow_memory.entry_count shadow = Hashtbl.length model)

let prop_shadow_growth =
  QCheck.Test.make ~count:20 ~name:"shadow memory survives growth"
    QCheck.(int_range 100 4000)
    (fun n ->
      let shadow = Bastion.Shadow_memory.create () in
      for i = 1 to n do
        Bastion.Shadow_memory.set_shadow shadow ~addr:(Int64.of_int (i * 8))
          ~value:(Int64.of_int (i * 3))
      done;
      let ok = ref true in
      for i = 1 to n do
        if
          Bastion.Shadow_memory.shadow shadow ~addr:(Int64.of_int (i * 8))
          <> Some (Int64.of_int (i * 3))
        then ok := false
      done;
      !ok)

(* Raw insert/find on the open-addressed table, with enough keys to
   force at least one [grow] (initial capacity is far below 3000):
   every inserted binding must survive the rehash, and the insert-probe
   counters must have seen every insert. *)
let prop_shadow_insert_roundtrip =
  QCheck.Test.make ~count:20 ~name:"insert/find roundtrip across grow"
    QCheck.(pair (int_range 200 3000) (int_range 1 1000))
    (fun (n, salt) ->
      let shadow = Bastion.Shadow_memory.create () in
      let key i = Int64.of_int ((i * 8) + (salt * 16)) in
      for i = 1 to n do
        Bastion.Shadow_memory.insert shadow (key i) (Int64.of_int (i + salt))
      done;
      let ok = ref true in
      for i = 1 to n do
        if Bastion.Shadow_memory.find shadow (key i) <> Some (Int64.of_int (i + salt))
        then ok := false
      done;
      !ok
      && Bastion.Shadow_memory.insert_count shadow >= n
      && Bastion.Shadow_memory.insert_probe_count shadow
         >= Bastion.Shadow_memory.insert_count shadow)

let prop_binding_key_injective =
  QCheck.Test.make ~count:500 ~name:"binding_key injective over valid (id,pos)"
    QCheck.(
      pair
        (pair (int_range 0 100000) (int_range 0 15))
        (pair (int_range 0 100000) (int_range 0 15)))
    (fun ((id1, pos1), (id2, pos2)) ->
      let k1 = Bastion.Shadow_memory.binding_key ~id:id1 ~pos:pos1 in
      let k2 = Bastion.Shadow_memory.binding_key ~id:id2 ~pos:pos2 in
      if id1 = id2 && pos1 = pos2 then Int64.equal k1 k2
      else not (Int64.equal k1 k2))

let prop_binding_keys_disjoint =
  QCheck.Test.make ~count:500 ~name:"binding keys never collide with addresses"
    QCheck.(pair (pair (int_range 0 100000) (int_range 0 15)) gen_addr)
    (fun ((id, pos), addr) ->
      not (Int64.equal (Bastion.Shadow_memory.binding_key ~id ~pos) addr))

(* --- machine memory ---------------------------------------------------- *)

let prop_memory_roundtrip =
  QCheck.Test.make ~count:200 ~name:"memory write/read roundtrip"
    QCheck.(list (pair gen_addr gen_word))
    (fun ops ->
      let mem = Machine.Memory.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (addr, v) ->
          Machine.Memory.write mem addr v;
          Hashtbl.replace model addr v)
        ops;
      Hashtbl.fold
        (fun addr v acc -> acc && Int64.equal (Machine.Memory.read mem addr) v)
        model true)

(* Memory against the representation it replaced, kept here as the
   oracle: a polymorphic (int64, int64) Hashtbl in which zero means
   unmapped.  Addresses cluster around a few bases so reads hit earlier
   writes, and cover unaligned offsets, bit 63 and the top word. *)
type mem_op =
  | Write of int64 * int64
  | Write_string of int64 * string
  | Read of int64
  | Read_block of int64 * int
  | Read_string of int64

let gen_mem_op =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (1, return 0xFFFF_FFFF_FFFF_FFF8L);
        ( 6,
          map2 Int64.add
            (oneofl
               [ 0x1000L; 0x7ffe_fff0L; Int64.min_int; 0x8000_0000_0000_1000L;
                 0xFFFF_FFFF_FFFF_FFD0L ])
            (map Int64.of_int (int_range 0 47)) );
      ]
  in
  let word =
    oneof
      [
        return 0L;
        return Int64.min_int;
        map (fun n -> Int64.logor 0x4000_0000_0000_0000L (Int64.of_int n)) small_nat;
        map Int64.of_int (int_range 1 126);
        int64;
      ]
  in
  frequency
    [
      (5, map2 (fun a v -> Write (a, v)) addr word);
      (1, map2 (fun a s -> Write_string (a, s)) addr (string_size ~gen:printable (int_range 0 5)));
      (3, map (fun a -> Read a) addr);
      (1, map2 (fun a n -> Read_block (a, n)) addr (int_range 0 6));
      (1, map (fun a -> Read_string a) addr);
    ]

let show_mem_op = function
  | Write (a, v) -> Printf.sprintf "write %Lx %Lx" a v
  | Write_string (a, s) -> Printf.sprintf "write_string %Lx %S" a s
  | Read a -> Printf.sprintf "read %Lx" a
  | Read_block (a, n) -> Printf.sprintf "read_block %Lx %d" a n
  | Read_string a -> Printf.sprintf "read_string %Lx" a

let prop_memory_model =
  QCheck.Test.make ~count:300 ~name:"memory agrees with the boxed-hashtable model"
    QCheck.(make ~print:(Print.list show_mem_op) Gen.(list_size (int_range 0 80) gen_mem_op))
    (fun ops ->
      let mem = Machine.Memory.create () in
      let model : (int64, int64) Hashtbl.t = Hashtbl.create 16 in
      let mread a = Option.value ~default:0L (Hashtbl.find_opt model a) in
      let mwrite a v = if Int64.equal v 0L then Hashtbl.remove model a else Hashtbl.replace model a v in
      let at a i = Int64.add a (Int64.of_int (8 * i)) in
      let mread_string a =
        let buf = Buffer.create 8 in
        let rec go i =
          let c = mread (at a i) in
          if i < 4096 && not (Int64.equal c 0L) then begin
            Buffer.add_char buf (Char.chr (Int64.to_int c land 0xff));
            go (i + 1)
          end
        in
        go 0;
        Buffer.contents buf
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Write (a, v) ->
              Machine.Memory.write mem a v;
              mwrite a v;
              true
            | Write_string (a, s) ->
              let n = Machine.Memory.write_string mem a s in
              String.iteri (fun i c -> mwrite (at a i) (Int64.of_int (Char.code c))) s;
              mwrite (at a (String.length s)) 0L;
              n = String.length s + 1
            | Read a -> Int64.equal (Machine.Memory.read mem a) (mread a)
            | Read_block (a, n) -> Machine.Memory.read_block mem a n = Array.init n (fun i -> mread (at a i))
            | Read_string a -> String.equal (Machine.Memory.read_string mem a) (mread_string a)
          in
          agrees && Machine.Memory.mapped_words mem = Hashtbl.length model)
        ops
      && Hashtbl.fold (fun a v acc -> acc && Int64.equal (Machine.Memory.read mem a) v) model true)

let printable_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 60)
    (QCheck.Gen.char_range '\032' '\126')

let prop_string_roundtrip =
  QCheck.Test.make ~count:200 ~name:"string store/load roundtrip" printable_string
    (fun s ->
      QCheck.assume (not (String.contains s '\000'));
      let mem = Machine.Memory.create () in
      let _ = Machine.Memory.write_string mem 0x8000L s in
      String.equal (Machine.Memory.read_string mem 0x8000L) s)

(* --- binop evaluator ---------------------------------------------------- *)

let prop_binop_comparisons =
  QCheck.Test.make ~count:300 ~name:"comparison operators are consistent"
    QCheck.(pair gen_word gen_word)
    (fun (a, b) ->
      let v op = Sil.Instr.eval_binop op a b in
      let as_bool x = not (Int64.equal x 0L) in
      as_bool (v Sil.Instr.Eq) = not (as_bool (v Sil.Instr.Ne))
      && as_bool (v Sil.Instr.Lt) = not (as_bool (v Sil.Instr.Ge))
      && as_bool (v Sil.Instr.Gt) = not (as_bool (v Sil.Instr.Le))
      && (as_bool (v Sil.Instr.Lt) || as_bool (v Sil.Instr.Gt)
         || as_bool (v Sil.Instr.Eq)))

let prop_binop_algebra =
  QCheck.Test.make ~count:300 ~name:"add/sub and xor involution"
    QCheck.(pair gen_word gen_word)
    (fun (a, b) ->
      let open Sil.Instr in
      Int64.equal (eval_binop Sub (eval_binop Add a b) b) a
      && Int64.equal (eval_binop Xor (eval_binop Xor a b) b) a
      && Int64.equal (eval_binop Div a 0L) 0L)

(* --- loops execute the right number of times ---------------------------- *)

let prop_counted_loop =
  QCheck.Test.make ~count:30 ~name:"counted_loop performs exactly n syscalls"
    QCheck.(int_range 0 50)
    (fun n ->
      let pb = Sil.Builder.program () in
      Kernel.Syscalls.declare_stubs pb;
      let fb = Sil.Builder.func pb "main" ~params:[] in
      Workloads.Appkit.counted_loop fb ~tag:"t" ~count:n (fun fb ->
          Sil.Builder.call fb "getpid" []);
      Sil.Builder.halt fb;
      Sil.Builder.seal fb;
      let prog = Sil.Builder.build pb ~entry:"main" in
      let machine = Machine.create prog in
      let proc = Kernel.boot machine in
      match Machine.run machine with
      | Machine.Exited _ ->
        Kernel.Process.syscall_count proc (Kernel.Syscalls.number "getpid") = n
      | Machine.Faulted _ -> false)

(* --- layout -------------------------------------------------------------- *)

let prop_layout_injective =
  QCheck.Test.make ~count:10 ~name:"code addresses are injective over locations"
    QCheck.unit
    (fun () ->
      let prog = Testlib.exec_program () in
      let layout = Machine.Layout.build prog in
      let addrs =
        List.map
          (fun (loc, _) -> Machine.Layout.addr_of_loc layout loc)
          (Sil.Prog.instrs prog)
      in
      List.length addrs = List.length (List.sort_uniq compare addrs))

(* --- seccomp allowlist ---------------------------------------------------- *)

let prop_allowlist =
  QCheck.Test.make ~count:100 ~name:"allowlist allows exactly its members"
    QCheck.(pair (list (int_range 0 400)) (int_range 0 400))
    (fun (allowed, probe) ->
      let f = Kernel.Seccomp.allowlist allowed in
      let verdict = Kernel.Seccomp.evaluate f probe in
      if List.mem probe allowed then verdict = Kernel.Seccomp.Allow
      else verdict = Kernel.Seccomp.Kill)

(* --- types ------------------------------------------------------------------ *)

let gen_ty =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneofl [ Sil.Types.I64; Sil.Types.Ptr Sil.Types.I64 ]
        else
          frequency
            [
              (2, oneofl [ Sil.Types.I64; Sil.Types.Ptr Sil.Types.I64 ]);
              (1, map2 (fun t k -> Sil.Types.Array (t, k)) (self (n / 2)) (int_range 1 5));
            ]))

let prop_array_sizes =
  QCheck.Test.make ~count:100 ~name:"array size = n * element size"
    (QCheck.make gen_ty)
    (fun ty ->
      let env = Sil.Types.struct_env_create () in
      let n = 7 in
      Sil.Types.size_words env (Sil.Types.Array (ty, n))
      = n * Sil.Types.size_words env ty)

let suites =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_shadow_model;
          prop_shadow_growth;
          prop_shadow_insert_roundtrip;
          prop_binding_key_injective;
          prop_binding_keys_disjoint;
          prop_memory_roundtrip;
          prop_memory_model;
          prop_string_roundtrip;
          prop_binop_comparisons;
          prop_binop_algebra;
          prop_counted_loop;
          prop_layout_injective;
          prop_allowlist;
          prop_array_sizes;
        ] );
  ]
