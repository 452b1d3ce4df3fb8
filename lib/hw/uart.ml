(* The TX FIFO is a byte ring: [len] pending bytes starting at [head],
   wrapping at the end of [buf]. *)
type t = {
  buf : Bytes.t;
  mutable head : int;
  mutable len : int;
}

let create ?(fifo_bytes = 8192) () =
  if fifo_bytes <= 0 then invalid_arg "Uart.create: fifo_bytes";
  { buf = Bytes.create fifo_bytes; head = 0; len = 0 }

let write_string t s =
  let cap = Bytes.length t.buf in
  (* On overrun the oldest bytes go first, so of a string longer than
     the FIFO only its last [cap] bytes can survive. *)
  let skip = max 0 (String.length s - cap) in
  let n = String.length s - skip in
  let tail = (t.head + t.len) mod cap in
  let first = min n (cap - tail) in
  Bytes.blit_string s skip t.buf tail first;
  Bytes.blit_string s (skip + first) t.buf 0 (n - first);
  let len = t.len + n in
  if len > cap then begin
    t.head <- (t.head + len - cap) mod cap;
    t.len <- cap
  end
  else t.len <- len

let drain t =
  if t.len = 0 then ""
  else begin
    let out = Bytes.create t.len in
    let first = min t.len (Bytes.length t.buf - t.head) in
    Bytes.blit t.buf t.head out 0 first;
    Bytes.blit t.buf 0 out first (t.len - first);
    t.head <- 0;
    t.len <- 0;
    Bytes.unsafe_to_string out
  end

let reset t =
  t.head <- 0;
  t.len <- 0
