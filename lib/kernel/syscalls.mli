(** The system-call table: real x86-64 numbers, the paper's Table 1
    classification of sensitive calls, and the §11.2 filesystem
    extension set. *)

type category =
  | Arbitrary_code_execution
  | Memory_permissions
  | Privilege_escalation
  | Networking
  | Filesystem   (** §11.2 extension scope *)
  | Other

val category_name : category -> string

(** (name, number, category) for every modelled syscall. *)
val table : (string * int * category) list

(** What the kernel dispatches on: one constructor per table entry. *)
type kind =
  | Execve | Execveat | Fork | Vfork | Clone | Ptrace
  | Mprotect | Mmap | Mremap | Remap_file_pages
  | Chmod | Setuid | Setgid | Setreuid
  | Socket | Bind | Connect | Listen | Accept | Accept4
  | Open | Openat | Read | Write | Close | Sendto | Recvfrom | Sendfile
  | Fsync | Lseek | Stat | Fstat
  | Getpid | Gettimeofday | Brk | Nanosleep | Futex | Epoll_wait
  | Rt_sigaction | Exit
  | Unknown  (** a number outside the table *)

(** One table slot, decoded once from {!table}. *)
type entry = {
  kind : kind;
  category : category;
  sensitive : bool;  (** in the Table 1 set *)
  path_arg : bool;  (** argument 0 is a path the kernel reads *)
  natural_arity : int;
}

(** Number of table slots (one per entry of {!table}).  Per-process and
    per-filter tables hold one cell per slot. *)
val slots : int

(** The slot of a syscall number, [-1] for any number outside the table
    (negative ones included); never raises. *)
val slot : int -> int

(** The decoded entry of a number: kind [Unknown] outside the table. *)
val decode : int -> entry

(** @raise Invalid_argument for names outside the table. *)
val number : string -> int

(** For display: ["sys_<n>"] for numbers outside the table. *)
val name : int -> string

val category : int -> category

(** The paper's Table 1 set of 20 sensitive syscalls, in table order. *)
val sensitive_names : string list

val sensitive_numbers : int list
val is_sensitive : int -> bool

(** The §11.2 filesystem-related set. *)
val filesystem_names : string list

val filesystem_numbers : int list
val is_filesystem : int -> bool

(** The C-prototype arity of a syscall wrapper (what a type-based CFI
    sees); stubs still accept the full 6-register kernel ABI. *)
val natural_arity : int -> int

(** Declare every table entry as a syscall stub in a program under
    construction. *)
val declare_stubs : Sil.Builder.program -> unit
