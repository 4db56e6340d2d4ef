(** The BASTION shadow memory (§7.1): an open-addressing hash table,
    logically resident in the protected application's address space and
    mapped shared with the monitor.

    Two kinds of entries share the table, distinguished by a tag bit:
    shadow copies (key = variable address, value = legitimate value) and
    argument bindings (key = (callsite id, position), value = bound
    address). *)

type t

val create : unit -> t

(** Key for a binding entry; guaranteed disjoint from addresses. *)
val binding_key : id:int -> pos:int -> int64

val capacity : t -> int

(** Insert or update an entry (grows the table as needed). *)
val insert : t -> int64 -> int64 -> unit

(** Lookup returning the value and the number of probes taken. *)
val find_probes : t -> int64 -> int64 option * int

val find : t -> int64 -> int64 option

(** Allocation-free lookup with the probe sequence and counters of
    {!find_probes}: the slot index of [key], or [-1] when absent.  The
    probe count is left in {!last_probes}. *)
val find_index : t -> int64 -> int

(** Probes taken by the latest {!find_index}. *)
val last_probes : t -> int

(** The value in a slot {!find_index} returned; valid until the next
    insert. *)
val value_at : t -> int -> int64

val set_shadow : t -> addr:int64 -> value:int64 -> unit
val shadow : t -> addr:int64 -> int64 option
val set_binding : t -> id:int -> pos:int -> addr:int64 -> unit
val binding : t -> id:int -> pos:int -> int64 option

val entry_count : t -> int

(** Lookups performed so far. *)
val lookup_count : t -> int

(** Total slots examined across all lookups (the raw counter behind
    {!mean_probe_length}). *)
val probe_count : t -> int

(** Mean probes per lookup so far (ablation statistic). *)
val mean_probe_length : t -> float

(** Inserts performed (including rehash inserts during growth). *)
val insert_count : t -> int

(** Slots examined across all inserts (the write-side analogue of the
    lookup probe count). *)
val insert_probe_count : t -> int

(** Mean probes per insert so far (write-side ablation statistic). *)
val mean_insert_probe_length : t -> float
