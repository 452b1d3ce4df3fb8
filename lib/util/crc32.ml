(* The CRC register is kept as an unboxed [int] (the polynomial is
   32-bit, so it fits native ints on every platform OCaml 5 supports);
   [int32] appears only at the public boundary. The 256-entry table is
   built eagerly at module init — it costs ~2k shift/xor ops once,
   versus a [Lazy.force] branch per byte on the 4 KiB-sector hot path. *)

let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let mask32 = 0xFFFFFFFF

let digest_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes: range";
  let crc = ref mask32 in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
           lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor mask32)

let digest_string s =
  digest_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
