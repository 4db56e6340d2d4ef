(* The BASTION shadow memory (§7.1): an open-addressing hash table,
   logically resident in the protected application's address space under
   a segmentation register, shared with the monitor process.

   Two kinds of entries share the table, distinguished by a tag bit in
   the key:
   - shadow copies:     key = variable address,        value = legit value
   - argument bindings: key = (callsite id, position), value = bound address

   The monitor's accesses go through [Ptrace]-charged wrappers in
   {!Monitor}; lookups report the number of probes so the cost model (and
   the probe-length ablation bench) can account for them. *)

type t = {
  mutable keys : int64 array;
  mutable values : int64 array;
  mutable used : bool array;
  mutable count : int;
  mutable total_probes : int;
  mutable lookups : int;
  mutable insert_probes : int;
  mutable inserts : int;
  mutable last_probes : int;  (** probes taken by the latest {!find_index} *)
}

let initial_capacity = 1024

let create () =
  {
    keys = Array.make initial_capacity 0L;
    values = Array.make initial_capacity 0L;
    used = Array.make initial_capacity false;
    count = 0;
    total_probes = 0;
    lookups = 0;
    insert_probes = 0;
    inserts = 0;
    last_probes = 0;
  }

(* SplitMix64 finalizer: a good avalanche for word keys. *)
let hash (key : int64) =
  let open Int64 in
  let z = mul key 0x9E3779B97F4A7C15L in
  let z = logxor z (shift_right_logical z 30) in
  let z = mul z 0xBF58476D1CE4E5B9L in
  let z = logxor z (shift_right_logical z 27) in
  let z = mul z 0x94D049BB133111EBL in
  to_int (logand (logxor z (shift_right_logical z 31)) 0x7FFFFFFFL)

let binding_tag = 0x4000_0000_0000_0000L

(** Key for a binding entry of (callsite id, argument position). *)
let binding_key ~id ~pos =
  Int64.logor binding_tag (Int64.of_int ((id * 16) + (pos land 15)))

let capacity t = Array.length t.keys

let rec insert t key value =
  if 10 * t.count > 7 * capacity t then grow t;
  let cap = capacity t in
  t.inserts <- t.inserts + 1;
  (* [steps] counts every slot examined, like [find_probes] does on the
     read side; the total feeds the probe-length ablation. *)
  let rec probe i steps =
    if t.used.(i) then
      if Int64.equal t.keys.(i) key then begin
        t.insert_probes <- t.insert_probes + steps + 1;
        t.values.(i) <- value
      end
      else probe ((i + 1) mod cap) (steps + 1)
    else begin
      t.insert_probes <- t.insert_probes + steps + 1;
      t.used.(i) <- true;
      t.keys.(i) <- key;
      t.values.(i) <- value;
      t.count <- t.count + 1
    end
  in
  probe (hash key mod cap) 0

and grow t =
  let old_keys = t.keys and old_values = t.values and old_used = t.used in
  let cap = 2 * capacity t in
  t.keys <- Array.make cap 0L;
  t.values <- Array.make cap 0L;
  t.used <- Array.make cap false;
  t.count <- 0;
  Array.iteri
    (fun i u -> if u then insert t old_keys.(i) old_values.(i))
    old_used

(** Look up a key; returns the value and the number of probes taken. *)
let find_probes t key : int64 option * int =
  t.lookups <- t.lookups + 1;
  let cap = capacity t in
  let rec probe i steps =
    if steps > cap then (None, steps)
    else if not t.used.(i) then (None, steps + 1)
    else if Int64.equal t.keys.(i) key then (Some t.values.(i), steps + 1)
    else probe ((i + 1) mod cap) (steps + 1)
  in
  let result, steps = probe (hash key mod cap) 0 in
  t.total_probes <- t.total_probes + steps;
  (result, steps)

let find t key = fst (find_probes t key)

(* [find_probes]'s probe loop, recording the probe count in
   [last_probes] instead of returning it. *)
let rec probe_from t key cap i steps =
  if steps > cap then begin
    t.last_probes <- steps;
    -1
  end
  else if not t.used.(i) then begin
    t.last_probes <- steps + 1;
    -1
  end
  else if Int64.equal t.keys.(i) key then begin
    t.last_probes <- steps + 1;
    i
  end
  else probe_from t key cap ((i + 1) mod cap) (steps + 1)

(** The trap path's lookup: the same probe sequence and counters as
    {!find_probes}, but it returns the slot index ([-1] when absent)
    and leaves the probe count in {!last_probes}, so a lookup allocates
    nothing. *)
let find_index t key =
  t.lookups <- t.lookups + 1;
  let cap = capacity t in
  let i = probe_from t key cap (hash key mod cap) 0 in
  t.total_probes <- t.total_probes + t.last_probes;
  i

let last_probes t = t.last_probes

(** The value in slot [i], as returned by {!find_index}; valid until the
    next insert. *)
let value_at t i = t.values.(i)

(* Convenience wrappers -------------------------------------------------- *)

let set_shadow t ~addr ~value = insert t addr value
let shadow t ~addr = find t addr
let set_binding t ~id ~pos ~addr = insert t (binding_key ~id ~pos) addr
let binding t ~id ~pos = find t (binding_key ~id ~pos)

let entry_count t = t.count
let lookup_count t = t.lookups

(** Total slots examined across all lookups (the raw counter behind
    {!mean_probe_length}; the observability layer reads per-trap deltas
    of it). *)
let probe_count t = t.total_probes

(** Mean probes per lookup so far (ablation statistic). *)
let mean_probe_length t =
  if t.lookups = 0 then 0.0 else float_of_int t.total_probes /. float_of_int t.lookups

let insert_count t = t.inserts
let insert_probe_count t = t.insert_probes

(** Mean probes per insert so far, including rehash probes during
    growth (the write-side ablation statistic). *)
let mean_insert_probe_length t =
  if t.inserts = 0 then 0.0
  else float_of_int t.insert_probes /. float_of_int t.inserts
