(** Word-addressable sparse memory.  Accesses are 8-byte-word sized;
    unmapped reads return zero (a zero-filled sparse address space —
    which also lets out-of-bounds indexing read whatever lives at the
    computed address, as the NEWTON attacks require). *)

(** The interface users see, as [Machine.Memory], with [t] abstract. *)
module type S = sig
  (** A table keyed by byte addresses, hashed for word-aligned
      addresses clustered in a few regions. *)
  module Addr_tbl : Hashtbl.S with type key = int64

  type t

  val create : unit -> t
  val read : t -> int64 -> int64

  (** Writing zero unmaps the word. *)
  val write : t -> int64 -> int64 -> unit

  val word : int64

  (** [addr_add a n] is [a + 8*n]. *)
  val addr_add : int64 -> int -> int64

  val read_block : t -> int64 -> int -> int64 array
  val write_block : t -> int64 -> int64 array -> unit

  (** NUL-terminated string stored one character per word. *)
  val read_string : ?max_len:int -> t -> int64 -> string

  (** Returns the number of words written (including the NUL). *)
  val write_string : t -> int64 -> string -> int

  (** The number of mapped (non-zero) words. *)
  val mapped_words : t -> int

  (** The number of pages that ever held a non-zero aligned word (a
      page stays mapped once mapped). *)
  val mapped_pages : t -> int
end

module Addr_tbl : Hashtbl.S with type key = int64
module Page_tbl : Hashtbl.S with type key = int

(** {2 Representation}

    Visible inside the machine library only, whose interpreter inlines
    its word accesses against it.  Aligned words live in pages of
    {!page_words} cells: the word at an aligned [addr] is cell
    [(addr lsr 3) land (page_words - 1)] of page [addr lsr 12] (logical
    shifts over all 64 bits).  A cell holds the box that was written,
    [0L] when unmapped, so a read allocates nothing.  Every unaligned
    byte address is its own cell in [bytes], so it never aliases its
    aligned neighbour. *)

type page = { pno : int; cells : int64 array }

type t = {
  pages : page Page_tbl.t;
  mutable last : page;
      (** the page of the latest lookup that found one; one pointer, so
          a lookup never sees a torn entry *)
  bytes : int64 Addr_tbl.t;
  mutable nonzero : int;  (** non-zero page cells, exactly *)
}

include S with type t := t and module Addr_tbl := Addr_tbl

val page_words : int

(** [find t pno] is page [pno], cached in [last].  Every unmapped page
    is one shared all-zero page, which is never cached and never
    written. *)
val find : t -> int -> page

(** [set t pno i v] writes cell [i] of page [pno] as {!write} writes an
    aligned word: it keeps [nonzero] exact, maps the page for a
    non-zero [v] and never maps one for zero. *)
val set : t -> int -> int -> int64 -> unit
