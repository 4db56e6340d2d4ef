(* The system-call table: real x86-64 numbers, the paper's Table 1
   classification of sensitive calls, and the §11.2 filesystem extension
   set.  Everything the kernel asks per syscall (kind, sensitivity, path
   argument, arity) is decoded from the table once, into one dense
   record per table slot and a static number -> slot index. *)

type category =
  | Arbitrary_code_execution
  | Memory_permissions
  | Privilege_escalation
  | Networking
  | Filesystem   (** §11.2 extension scope *)
  | Other

let category_name = function
  | Arbitrary_code_execution -> "Arbitrary Code Execution"
  | Memory_permissions -> "Memory Permissions"
  | Privilege_escalation -> "Privilege Escalation"
  | Networking -> "Networking"
  | Filesystem -> "Filesystem"
  | Other -> "Other"

type kind =
  | Execve | Execveat | Fork | Vfork | Clone | Ptrace
  | Mprotect | Mmap | Mremap | Remap_file_pages
  | Chmod | Setuid | Setgid | Setreuid
  | Socket | Bind | Connect | Listen | Accept | Accept4
  | Open | Openat | Read | Write | Close | Sendto | Recvfrom | Sendfile
  | Fsync | Lseek | Stat | Fstat
  | Getpid | Gettimeofday | Brk | Nanosleep | Futex | Epoll_wait
  | Rt_sigaction | Exit
  | Unknown

(* (name, number, category, kind, natural arity).  Numbers follow
   arch/x86/entry/syscalls; the arity is the C prototype's as a
   type-based CFI sees it (6 where the model does not pin one). *)
let entries =
  [
    (* Table 1: the 20 sensitive system calls. *)
    ("execve", 59, Arbitrary_code_execution, Execve, 3);
    ("execveat", 322, Arbitrary_code_execution, Execveat, 5);
    ("fork", 57, Arbitrary_code_execution, Fork, 0);
    ("vfork", 58, Arbitrary_code_execution, Vfork, 0);
    ("clone", 56, Arbitrary_code_execution, Clone, 1);
    ("ptrace", 101, Arbitrary_code_execution, Ptrace, 1);
    ("mprotect", 10, Memory_permissions, Mprotect, 3);
    ("mmap", 9, Memory_permissions, Mmap, 6);
    ("mremap", 25, Memory_permissions, Mremap, 5);
    ("remap_file_pages", 216, Memory_permissions, Remap_file_pages, 5);
    ("chmod", 90, Privilege_escalation, Chmod, 3);
    ("setuid", 105, Privilege_escalation, Setuid, 1);
    ("setgid", 106, Privilege_escalation, Setgid, 1);
    ("setreuid", 113, Privilege_escalation, Setreuid, 3);
    ("socket", 41, Networking, Socket, 3);
    ("bind", 49, Networking, Bind, 3);
    ("connect", 42, Networking, Connect, 3);
    ("listen", 50, Networking, Listen, 2);
    ("accept", 43, Networking, Accept, 3);
    ("accept4", 288, Networking, Accept4, 4);
    (* §11.2 filesystem-related extension set. *)
    ("open", 2, Filesystem, Open, 3);
    ("openat", 257, Filesystem, Openat, 4);
    ("read", 0, Filesystem, Read, 3);
    ("write", 1, Filesystem, Write, 3);
    ("close", 3, Filesystem, Close, 1);
    ("sendto", 44, Filesystem, Sendto, 2);
    ("recvfrom", 45, Filesystem, Recvfrom, 2);
    ("sendfile", 40, Filesystem, Sendfile, 4);
    ("fsync", 74, Filesystem, Fsync, 1);
    ("lseek", 8, Filesystem, Lseek, 3);
    ("stat", 4, Filesystem, Stat, 2);
    ("fstat", 5, Filesystem, Fstat, 2);
    (* Common non-sensitive calls used by the workload models. *)
    ("getpid", 39, Other, Getpid, 0);
    ("gettimeofday", 96, Other, Gettimeofday, 0);
    ("brk", 12, Other, Brk, 1);
    ("nanosleep", 35, Other, Nanosleep, 1);
    ("futex", 202, Other, Futex, 2);
    ("epoll_wait", 232, Other, Epoll_wait, 6);
    ("rt_sigaction", 13, Other, Rt_sigaction, 6);
    ("exit", 60, Other, Exit, 1);
  ]

let table = List.map (fun (name, nr, cat, _, _) -> (name, nr, cat)) entries

type entry = {
  kind : kind;
  category : category;
  sensitive : bool;
  path_arg : bool;
  natural_arity : int;
}

let is_sensitive_category = function
  | Arbitrary_code_execution | Memory_permissions | Privilege_escalation | Networking -> true
  | Filesystem | Other -> false

(* The syscalls whose first argument is a path the kernel reads. *)
let takes_path = function
  | Execve | Execveat | Chmod | Open | Openat | Stat -> true
  | _ -> false

let slots = List.length entries

let by_slot =
  Array.of_list
    (List.map
       (fun (_, _, category, kind, natural_arity) ->
         { kind; category; sensitive = is_sensitive_category category;
           path_arg = takes_path kind; natural_arity })
       entries)

let names = Array.of_list (List.map (fun (name, _, _, _, _) -> name) entries)

(* number -> slot, -1 outside the table. *)
let index =
  let top = List.fold_left (fun acc (_, nr, _, _, _) -> max acc nr) 0 entries in
  let a = Array.make (top + 1) (-1) in
  List.iteri (fun slot (_, nr, _, _, _) -> a.(nr) <- slot) entries;
  a

let unknown =
  { kind = Unknown; category = Other; sensitive = false; path_arg = false;
    natural_arity = 6 }

let slot nr = if nr >= 0 && nr < Array.length index then Array.unsafe_get index nr else -1

let decode nr =
  let s = slot nr in
  if s < 0 then unknown else Array.unsafe_get by_slot s

let by_name = Hashtbl.create 64

let () = List.iter (fun (name, nr, _, _, _) -> Hashtbl.replace by_name name nr) entries

let number name =
  match Hashtbl.find_opt by_name name with
  | Some nr -> nr
  | None -> invalid_arg ("Syscalls.number: unknown syscall " ^ name)

let name nr =
  let s = slot nr in
  if s < 0 then Printf.sprintf "sys_%d" nr else names.(s)

let category nr = (decode nr).category

(** The paper's Table 1 set, in table order. *)
let sensitive_names =
  List.filter_map
    (fun (name, _, c, _, _) -> if is_sensitive_category c then Some name else None)
    entries

let sensitive_numbers = List.map number sensitive_names

let is_sensitive nr = (decode nr).sensitive

let filesystem_names =
  List.filter_map
    (fun (name, _, c, _, _) -> match c with Filesystem -> Some name | _ -> None)
    entries

let filesystem_numbers = List.map number filesystem_names

let is_filesystem nr = match (decode nr).category with Filesystem -> true | _ -> false

(** The C-prototype arity of each syscall wrapper (what a type-based CFI
    sees); stubs still accept the full 6-register kernel ABI. *)
let natural_arity nr = (decode nr).natural_arity

(** Declare every table entry as a syscall stub in a SIL program under
    construction.  All stubs take 6 integer arguments (the kernel ABI);
    unused trailing arguments are simply ignored. *)
let declare_stubs (pb : Sil.Builder.program) =
  List.iter
    (fun (name, nr, _) -> Sil.Builder.syscall_stub pb name ~number:nr ~arity:6)
    table
