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

(* The trap path's shadow lookup against the reference [find_probes]:
   two tables fed the same inserts answer the same lookups, one per
   implementation, and must agree on the value, the probe count and
   both lookup counters after every lookup.  Key sets mix addresses and
   binding-tagged keys (bit 62) with keys crafted against the initial
   table: several sharing one home slot (a collision chain) and several
   homed at the last slot (a chain that wraps to slot 0).  Filler
   inserts force growth before, between or after the crafted ones. *)
let home_slot key =
  let t = Bastion.Shadow_memory.create () in
  Bastion.Shadow_memory.insert t key 0L;
  Bastion.Shadow_memory.find_index t key

let crafted_keys =
  lazy
    (let cap = Bastion.Shadow_memory.capacity (Bastion.Shadow_memory.create ()) in
     let homed slot n =
       let rec go k acc found =
         if found = n then List.rev acc
         else
           let key = Int64.of_int (k * 8) in
           if home_slot key = slot then go (k + 1) (key :: acc) (found + 1)
           else go (k + 1) acc found
       in
       go 1 [] 0
     in
     let first = Int64.of_int 8 in
     (homed (home_slot first) 4, homed (cap - 1) 4))

type shadow_op = Insert of int64 * int64 | Lookup of int64 | Fill of int

let gen_shadow_ops =
  lazy
    (let open QCheck.Gen in
     let colliding, wrapping = Lazy.force crafted_keys in
     let key =
       frequency
         [
           (3, map (fun n -> Int64.of_int (abs n land 0xFFFF8)) int);
           (2, map2 (fun id pos -> Bastion.Shadow_memory.binding_key ~id ~pos)
                 (int_range 0 5000) (int_range 0 15));
           (2, oneofl colliding);
           (2, oneofl wrapping);
         ]
     in
     list_size (int_range 1 60)
       (frequency
          [
            (3, map2 (fun k v -> Insert (k, Int64.of_int v)) key int);
            (4, map (fun k -> Lookup k) key);
            (1, map (fun n -> Fill n) (int_range 0 900));
          ]))

(* Generators that need set-up build it on first use, not when the test
   binary starts. *)
let lazy_gen g st = (Lazy.force g) st

let show_shadow_op = function
  | Insert (k, v) -> Printf.sprintf "insert %Lx %Ld" k v
  | Lookup k -> Printf.sprintf "lookup %Lx" k
  | Fill n -> Printf.sprintf "fill %d" n

let prop_shadow_find_index =
  QCheck.Test.make ~count:300 ~name:"shadow find_index agrees with find_probes"
    QCheck.(make ~print:(Print.list show_shadow_op) (lazy_gen gen_shadow_ops))
    (fun ops ->
      let module S = Bastion.Shadow_memory in
      let reference = S.create () and fast = S.create () in
      let both f = f reference; f fast in
      let ok = ref true in
      List.iter
        (function
          | Insert (k, v) -> both (fun t -> S.insert t k v)
          | Fill n ->
            (* Filler keys above every generated address, below bit 62. *)
            for i = 1 to n do
              both (fun t -> S.insert t (Int64.of_int (0x1000_0000 + (i * 8))) 1L)
            done
          | Lookup k ->
            let value, probes = S.find_probes reference k in
            let i = S.find_index fast k in
            let value' = if i < 0 then None else Some (S.value_at fast i) in
            ok :=
              !ok && value = value'
              && probes = S.last_probes fast
              && S.lookup_count reference = S.lookup_count fast
              && S.probe_count reference = S.probe_count fast)
        ops;
      !ok)

(* --- verdict-cache key ------------------------------------------------- *)

(* A protected small NGINX; its monitor resolves frames as a trap does. *)
let nginx_session =
  lazy
    (let pr =
       Workloads.Drivers.prepare
         (Workloads.Drivers.nginx ~params:Workloads.Nginx_model.small ())
         (Workloads.Drivers.Bastion_fs Bastion.Monitor.Fs_full)
     in
     (Option.get pr.pr_monitor, pr.pr_machine))

let gen_int64 =
  QCheck.Gen.map2
    (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int (lo land 0xFFFFFFFF))))
    QCheck.Gen.int QCheck.Gen.int

(* Chains of (function, return token), innermost first: names the
   program defines (with and without sensitive slots) and names it does
   not, tokens random or absent (the entry frame's). *)
let gen_key_input =
  lazy
    (let open QCheck.Gen in
     let mon, machine = Lazy.force nginx_session in
     let defined = Hashtbl.fold (fun name _ acc -> name :: acc) machine.Machine.prog.funcs [] in
     let with_slots =
       Hashtbl.fold (fun name _ acc -> name :: acc) mon.Bastion.Monitor.meta.func_slots []
     in
     let name =
       frequency
         [
           (3, oneofl (List.sort compare defined));
           (2, oneofl (List.sort compare with_slots));
           (2, string_size ~gen:printable (int_range 0 16));
         ]
     in
     let frame = pair name (opt gen_int64) in
     triple (int_range 0 400) gen_int64 (list_size (int_range 0 12) frame))

let show_key_input (sysno, rip, chain) =
  Printf.sprintf "sysno %d rip %Lx [%s]" sysno rip
    (String.concat "; "
       (List.map
          (fun (f, tok) ->
            Printf.sprintf "%S, %s" f
              (match tok with None -> "-" | Some t -> Int64.to_string t))
          chain))

let prop_key_hashed =
  QCheck.Test.make ~count:500 ~name:"pre-hashed key fold equals Verdict_cache.key"
    QCheck.(make ~print:show_key_input (lazy_gen gen_key_input))
    (fun (sysno, rip, chain) ->
      let hashes = Array.of_list (List.map (fun (f, _) -> Bastion.Verdict_cache.hash_string f) chain) in
      let tokens = Array.of_list (List.map snd chain) in
      Int64.equal
        (Bastion.Verdict_cache.key_hashed ~sysno ~rip ~hashes ~tokens
           ~len:(List.length chain))
        (Bastion.Verdict_cache.key ~sysno ~rip ~chain))

(* The monitor's own fold, through its frame resolution: the same key
   as the reference, and a slot span exactly where the metadata lists
   sensitive slots (never for a name the program does not define). *)
let prop_monitor_cache_key =
  QCheck.Test.make ~count:500 ~name:"monitor key fold equals Verdict_cache.key"
    QCheck.(make ~print:show_key_input (lazy_gen gen_key_input))
    (fun (sysno, rip, chain) ->
      let mon, _ = Lazy.force nginx_session in
      let frames =
        List.mapi
          (fun i (f, tok) ->
            { Kernel.Ptrace.fv_func = f; fv_callsite = Int64.of_int (0x400000 + (i * 8));
              fv_args = [||]; fv_ret_token = tok; fv_base = Int64.of_int (i * 64) })
          chain
      in
      let span_model f =
        match Hashtbl.find_opt mon.Bastion.Monitor.meta.func_slots f with
        | None | Some [] -> None
        | Some (o :: _ as offs) ->
          Some (List.fold_left min o offs, List.fold_left max o offs)
      in
      Int64.equal
        (Bastion.Monitor.cache_key mon ~sysno ~rip frames)
        (Bastion.Verdict_cache.key ~sysno ~rip ~chain)
      && List.for_all (fun (f, _) -> Bastion.Monitor.slot_span mon f = span_model f) chain)

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
   writes.  They cover page boundaries (...ff8 / ...000, also with bit 63
   set), the unaligned neighbours of aligned words, bit 63, the top word
   (whose successor wraps to page 0), and far pages that only zero
   writes reach; blocks and strings span two pages. *)
type mem_op =
  | Write of int64 * int64
  | Write_string of int64 * string
  | Read of int64
  | Read_block of int64 * int
  | Read_string of int64

let gen_mem_op =
  let open QCheck.Gen in
  let near base = map (fun k -> Int64.add base (Int64.of_int k)) (int_range 0 47) in
  let aligned =
    oneofl [ 0x1000L; 0x1ff8L; 0x2000L; 0x7ffe_fff8L; 0x8000_0000_0000_0ff8L; Int64.min_int ]
  in
  let addr =
    frequency
      [
        (1, return 0xFFFF_FFFF_FFFF_FFF8L);
        ( 6,
          oneofl
            [ 0x1000L; 0x1fd8L; 0x7ffe_fff0L; Int64.min_int; 0x8000_0000_0000_0fe0L;
              0x8000_0000_0000_1000L; 0xFFFF_FFFF_FFFF_FFD0L ]
          >>= near );
        (* the unaligned neighbours of aligned words *)
        (2, map2 Int64.add aligned (oneofl [ -1L; 1L; 4L; 7L; 9L ]));
        (1, aligned);
        (* far pages nothing else maps *)
        (1, map (fun k -> Int64.of_int (0x5_0000_0000 + (k * 4096))) (int_range 0 3));
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
      (1, map (fun a -> Write (a, 0L)) addr);
      (1, map2 (fun a s -> Write_string (a, s)) addr (string_size ~gen:printable (int_range 0 5)));
      (3, map (fun a -> Read a) addr);
      (1, map2 (fun a n -> Read_block (a, n)) addr (int_range 0 8));
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
      (* Pages that ever received a non-zero aligned word: only those map. *)
      let pages : (int64, unit) Hashtbl.t = Hashtbl.create 16 in
      let mread a = Option.value ~default:0L (Hashtbl.find_opt model a) in
      let mwrite a v =
        if Int64.equal v 0L then Hashtbl.remove model a
        else begin
          Hashtbl.replace model a v;
          if Int64.equal (Int64.logand a 7L) 0L then
            Hashtbl.replace pages (Int64.shift_right_logical a 12) ()
        end
      in
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
          agrees
          && Machine.Memory.mapped_words mem = Hashtbl.length model
          && Machine.Memory.mapped_pages mem = Hashtbl.length pages)
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

(* The machine evaluates binops with its own inlined copy of
   [Sil.Instr.eval_binop], which stays the reference.  Every operator
   agrees on every pair drawn from two random words and the edges: a
   zero divisor, min_int / -1, and shift counts that are negative or at
   least 64. *)
let binop_edges =
  [ 0L; 1L; -1L; 2L; 63L; 64L; 65L; 127L; -63L; -64L; -65L; Int64.min_int;
    Int64.max_int; Int64.succ Int64.min_int ]

let all_binops =
  Sil.Instr.[ Add; Sub; Mul; Div; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ]

let prop_machine_binop =
  QCheck.Test.make ~count:200 ~name:"machine binop equals Sil.Instr.eval_binop"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let words = a :: b :: binop_edges in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              List.for_all
                (fun op -> Int64.equal (Machine.binop op x y) (Sil.Instr.eval_binop op x y))
                all_binops)
            words)
        words)

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
          prop_shadow_find_index;
          prop_key_hashed;
          prop_monitor_cache_key;
          prop_memory_roundtrip;
          prop_memory_model;
          prop_string_roundtrip;
          prop_binop_comparisons;
          prop_binop_algebra;
          prop_counted_loop;
          prop_layout_injective;
          prop_allowlist;
          prop_array_sizes;
          prop_machine_binop;
        ] );
  ]
