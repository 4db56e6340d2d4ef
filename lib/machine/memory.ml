(* Word-addressable sparse memory.

   Addresses are byte addresses but all accesses are 8-byte-word aligned
   and word-sized (SIL is word oriented).  Unmapped reads return zero,
   which models a zero-filled sparse address space and — importantly for
   the NEWTON-style attacks — lets out-of-bounds array indexing read
   whatever happens to live at the computed address. *)

module type S = sig
  module Addr_tbl : Hashtbl.S with type key = int64

  type t

  val create : unit -> t
  val read : t -> int64 -> int64
  val write : t -> int64 -> int64 -> unit
  val word : int64
  val addr_add : int64 -> int -> int64
  val read_block : t -> int64 -> int -> int64 array
  val write_block : t -> int64 -> int64 array -> unit
  val read_string : ?max_len:int -> t -> int64 -> string
  val write_string : t -> int64 -> string -> int
  val mapped_words : t -> int
  val mapped_pages : t -> int
end

(* A table keyed by byte addresses.  Addresses are mostly word-aligned
   and clustered in a few regions, so the hash multiplies and folds the
   high bits down: the table indexes buckets by the low bits. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal

  let hash a =
    let x = Int64.to_int a * 0x1F1B_BCDC_BFA5_3E0B in
    x lxor (x lsr 31)
end)

(* Page numbers of the regions the layout uses differ mostly above
   their low bits (0x400, 0x500, ... and the stack near 0x7fff0), so
   fold the next byte down before the table masks the low bits. *)
module Page_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x lxor (x lsr 8)
end)

(* Aligned words live in pages of [page_words] cells, each cell a boxed
   word ([0L] when unmapped), so [read] hands back the stored box and
   allocates nothing.  Every unaligned byte address is its own cell in
   [bytes], so it never aliases its aligned neighbour.  [nonzero] counts
   the non-zero page cells exactly: writing zero unmaps. *)
type page = { pno : int; cells : int64 array }

type t = {
  pages : page Page_tbl.t;
  mutable last : page;
  bytes : int64 Addr_tbl.t;
  mutable nonzero : int;
}

let page_words = 512

(* Unmapped pages read through this one; it is never cached in [last]
   and never written. *)
let absent = { pno = -1; cells = Array.make page_words 0L }

let create () =
  { pages = Page_tbl.create 64; last = absent; bytes = Addr_tbl.create 16; nonzero = 0 }

let[@inline] aligned addr = Int64.to_int addr land 7 = 0
let[@inline] page_no addr = Int64.to_int (Int64.shift_right_logical addr 12)
let[@inline] cell addr = (Int64.to_int addr lsr 3) land (page_words - 1)

let find t pno =
  let p = t.last in
  if p.pno = pno then p
  else
    match Page_tbl.find t.pages pno with
    | p ->
      t.last <- p;
      p
    | exception Not_found -> absent

let set t pno i v =
  let p = find t pno in
  if Int64.equal v 0L then begin
    if p != absent && not (Int64.equal p.cells.(i) 0L) then begin
      p.cells.(i) <- 0L;
      t.nonzero <- t.nonzero - 1
    end
  end
  else begin
    let p =
      if p != absent then p
      else begin
        let p = { pno; cells = Array.make page_words 0L } in
        Page_tbl.replace t.pages pno p;
        t.last <- p;
        p
      end
    in
    if Int64.equal p.cells.(i) 0L then t.nonzero <- t.nonzero + 1;
    p.cells.(i) <- v
  end

let[@inline] read t addr =
  if aligned addr then Array.unsafe_get (find t (page_no addr)).cells (cell addr)
  else match Addr_tbl.find t.bytes addr with v -> v | exception Not_found -> 0L

let write t addr v =
  if aligned addr then set t (page_no addr) (cell addr) v
  else if Int64.equal v 0L then Addr_tbl.remove t.bytes addr
  else Addr_tbl.replace t.bytes addr v

let word = 8L

let[@inline] addr_add addr words = Int64.add addr (Int64.mul word (Int64.of_int words))

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

let mapped_words t = t.nonzero + Addr_tbl.length t.bytes
let mapped_pages t = Page_tbl.length t.pages
