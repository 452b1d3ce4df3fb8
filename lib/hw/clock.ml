type t = { mhz : int; mutable cycles : int }

let create ~mhz =
  if mhz <= 0 then invalid_arg "Clock.create: mhz";
  { mhz; cycles = 0 }

let mhz t = t.mhz

let cycles t = Int64.of_int t.cycles

let advance t n =
  if n < 0 then invalid_arg "Clock.advance: negative";
  t.cycles <- t.cycles + n

let now_us t = float_of_int t.cycles /. float_of_int t.mhz

let now_s t = now_us t /. 1_000_000.

let reset t = t.cycles <- 0
