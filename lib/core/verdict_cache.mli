(** The trap fast path's CT+CF verdict cache: fixed-size, direct-mapped,
    keyed by a 64-bit mix of (syscall number, trap rip, the stack's
    [(function, return token)] chain).  A hit means this exact callsite
    and return-token chain already passed Call-Type and Control-Flow
    under the current epoch, so the monitor may skip the
    unwind-and-validate walk and go straight to Argument Integrity
    (which always re-runs).

    Safety: every step of {!key} is a bijection of the accumulator, so
    corrupting any single chain element — even by one bit — provably
    changes the key; a pivoted or ROP'd stack can never hit. *)

type t

val default_size : int

(** [create ?size ()] builds an empty cache; [size] is rounded up to a
    power of two (default {!default_size}). *)
val create : ?size:int -> unit -> t

val size : t -> int

(** The cache key of one trap: syscall number, trap rip, and the
    innermost-first [(function, return token)] chain of the stack. *)
val key : sysno:int -> rip:int64 -> chain:(string * int64 option) list -> int64

(** The 64-bit hash {!key} folds in for one function name. *)
val hash_string : string -> int64

(** {!key} over a chain with pre-hashed names: frame [i] of the [len]
    innermost frames contributes [hashes.(i)] (= [hash_string] of its
    function) and [tokens.(i)].  Bit-identical to {!key}, with no string
    hashing and no allocation but the result. *)
val key_hashed :
  sysno:int -> rip:int64 -> hashes:int64 array -> tokens:int64 option array ->
  len:int -> int64

(** Probe for a key recorded under the current epoch (counts hit/miss
    statistics). *)
val probe : t -> int64 -> bool

(** Record a key that just passed CT and CF. *)
val record : t -> int64 -> unit

(** Invalidate every cached verdict (metadata or seccomp filter
    rebuild). *)
val bump_epoch : t -> unit

val hits : t -> int
val misses : t -> int
val records : t -> int
val epoch : t -> int

(** Hits / (hits + misses); 0 before the first probe. *)
val hit_rate : t -> float
