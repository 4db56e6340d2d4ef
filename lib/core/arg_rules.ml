(* Direct vs extended argument rules (§6.3.2).

   Whether an argument is verified by value (direct) or also by pointee
   contents (extended) is syscall- and position-specific, so it is not
   instrumented: the monitor recovers the syscall being verified and
   applies the rule itself.  accept/accept4's [struct sockaddr] argument
   gets the specialised fast-path verification §9.2 describes. *)

module Syscalls = Kernel.Syscalls

type kind =
  | Direct
  | Extended          (** verify pointer value and pointee contents *)
  | Sockaddr          (** extended, with the specialised sockaddr check *)

let kind ~sysno ~pos =
  match ((Syscalls.decode sysno).kind, pos) with
  | Execve, (0 | 1 | 2) -> Extended
  | Execveat, 1 -> Extended
  | (Open | Openat | Stat | Chmod), 0 -> Extended
  | (Accept | Accept4), 1 -> Sockaddr
  | _, _ -> Direct

(** Maximum pointee words an extended check walks (strings/vectors are
    NUL-terminated well before this in the workloads). *)
let max_extended_words = 64
