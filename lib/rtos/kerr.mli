(** Kernel status codes.

    Embedded OSs return negative errno-style integers; personalities map
    these to their own naming in log output, but share the numeric space
    so the fuzzer's feedback layer can distinguish "call rejected" from
    "call made progress". *)

val ok : int64

val einval : int64

val enomem : int64

val enoent : int64

val etimedout : int64

val ebusy : int64

val eagain : int64

val enospc : int64

val eperm : int64

val name : int64 -> string
(** ["OK"], ["EINVAL"], ... or ["ERR<n>"] for unknown codes. *)
