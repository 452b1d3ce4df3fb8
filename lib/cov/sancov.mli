(** SanCov-style coverage runtime (target side).

    OS and app code call {!cmp} / {!edge} at every branch, mirroring the
    compiler-inserted [__sanitizer_cov_trace_cmp()] callbacks the paper
    uses. Each hook crosses its instrumentation site (so the PC moves
    and breakpoints work), and — when the build is instrumented — buckets
    the comparison into an edge record and appends it to a coverage
    buffer in target RAM via [write_comp_data]. When the buffer fills,
    the hook traps at the well-known [_kcmp_buf_full] site so the host
    can drain and reset it; if no host reacts (no breakpoint armed), the
    buffer self-wraps so execution is never wedged.

    Edge identity is [site_index * variants_per_site + variant], where
    the variant buckets the comparison operands; this models how distinct
    branch outcomes at one static location count as distinct covered
    branches. *)

val variants_per_site : int
(** 16: variant 0 is "operands equal / plain edge"; 1..15 bucket the
    bit-length of the operand difference (capped), so nearby-but-distinct
    comparison outcomes count as distinct branches. *)

module Layout : sig
  (** Placement of the coverage buffer in target RAM. Records are 32-bit
      edge indices in the board's endianness. A small ring of raw
      comparison operand pairs follows the edge records: this is the
      payload of [__sanitizer_cov_trace_cmp] that lets the host harvest
      the constants the kernel compares inputs against. *)

  type t = { base : int; capacity_records : int }

  val cmp_ring_entries : int
  (** 1024 operand pairs; trivial comparisons are not recorded. *)

  val write_index_addr : t -> int

  val records_addr : t -> int

  val cmp_count_addr : t -> int
  (** Total comparisons recorded (monotonic until host reset). *)

  val cmp_ring_addr : t -> int
  (** 8 bytes per entry: the two operands' low 32 bits. *)
end

type mode = Uninstrumented | Instrumented

type t

val create :
  sitemap:Sitemap.t -> ram:Eof_hw.Memory.t -> layout:Layout.t -> mode:mode ->
  buf_full_site:int -> t
(** [buf_full_site] is the flash address of the [_kcmp_buf_full] trap
    symbol (allocated from the same site map). *)

val edge_capacity : t -> int
(** Size of the host bitmap needed for this build:
    [site_count * variants_per_site]. *)

val cmp : t -> site:int -> int64 -> int64 -> unit
(** The [__sanitizer_cov_trace_cmp] hook. *)

val edge : t -> site:int -> unit
(** Plain basic-block edge hook (variant 0). *)

(** Host-side helpers: interpreting a raw dump of the coverage buffer.
    These are pure so the host can apply them to bytes read over the
    debug link. *)

val decode_records_into :
  ?pos:int -> endianness:Eof_hw.Arch.endianness -> count:int -> string ->
  int array -> int
(** Decode [count] 32-bit records from the raw records area into the
    caller's scratch array starting at [pos] (default 0); the array must
    hold at least [pos + count] entries. Returns [count]. Callers reuse
    one scratch array per campaign, so a drain allocates nothing
    proportional to its record count. *)

val decode_cmp_ring_into :
  ?pos:int -> endianness:Eof_hw.Arch.endianness -> count:int -> string ->
  a:int64 array -> b:int64 array -> int
(** Decode up to [count] operand pairs from the raw cmp-ring area into
    the caller's [a]/[b] scratch arrays starting at [pos] (sign-extended to [int64], matching what
    {!cmp} consumed on the target side); returns the number of pairs decoded. *)
