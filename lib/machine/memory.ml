(* Word-addressable sparse memory.

   Addresses are byte addresses but all accesses are 8-byte-word aligned
   and word-sized (SIL is word oriented).  Unmapped reads return zero,
   which models a zero-filled sparse address space and — importantly for
   the NEWTON-style attacks — lets out-of-bounds array indexing read
   whatever happens to live at the computed address. *)

(* Every byte address is its own cell, so an unaligned address never
   aliases its aligned neighbour.  Addresses are mostly word-aligned and
   clustered in a few regions, so the hash multiplies and folds the high
   bits down: the table indexes buckets by the low bits. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal

  let hash a =
    let x = Int64.to_int a * 0x1F1B_BCDC_BFA5_3E0B in
    x lxor (x lsr 31)
end)

type t = int64 Addr_tbl.t

let create () = Addr_tbl.create 4096

let read t addr = match Addr_tbl.find t addr with v -> v | exception Not_found -> 0L

let write t addr v = if Int64.equal v 0L then Addr_tbl.remove t addr else Addr_tbl.replace t addr v

let word = 8L

let addr_add addr words = Int64.add addr (Int64.mul word (Int64.of_int words))

(** Read [n] consecutive words starting at [addr]. *)
let read_block t addr n =
  let words = Array.make n 0L in
  for i = 0 to n - 1 do
    words.(i) <- read t (addr_add addr i)
  done;
  words

let write_block t addr words =
  Array.iteri (fun i v -> write t (addr_add addr i) v) words

(** Read a NUL-terminated string stored one character per word. *)
let read_string ?(max_len = 4096) t addr =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= max_len then Buffer.contents buf
    else
      let c = read t (addr_add addr i) in
      if Int64.equal c 0L then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr (Int64.to_int c land 0xff));
        go (i + 1)
      end
  in
  go 0

(** Store a string one character per word, NUL terminated; returns the
    number of words written. *)
let write_string t addr s =
  String.iteri (fun i c -> write t (addr_add addr i) (Int64.of_int (Char.code c))) s;
  write t (addr_add addr (String.length s)) 0L;
  String.length s + 1

let mapped_words t = Addr_tbl.length t
