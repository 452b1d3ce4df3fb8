(* A fixed-work reference kernel, timed beside the workload to divide the
   host's speed out of wall times.

   The shared host this benchmark was sized on switches between a fast
   and a slow state for tens of seconds to minutes, and the slow state
   stretches memory-bound work by up to ~40%. A kernel of random
   read-modify-writes over a 32 MB array (far larger than the caches)
   slows down in step with the workloads, while a cache-resident loop
   does not (README.md has the measurement). It uses only the standard
   library, so no change to the fuzzer changes its cost. *)

let words = 4 * 1024 * 1024

let steps = 1_500_000

(* Allocated when the program starts, before any workload runs, so its
   pages do not depend on what the workload allocated and freed. It lies
   outside the OCaml heap and leaves the workload's heap figures alone.
   Filling it faults every page in before the first timing. *)
let table =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill a 0;
  a

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

let work () =
  let x = ref 7 and acc = ref 0 in
  for _ = 1 to steps do
    x := lcg !x;
    let j = !x mod words in
    acc := !acc + table.{j};
    table.{j} <- !acc land 0xff
  done;
  ignore (Sys.opaque_identity !acc)

(* Wall seconds of one kernel run. *)
let time () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0

(* A scale: the kernel's wall time in the fast state of the host above
   (2-core x86-64 VM, Xeon 2.0 GHz). Normalized times read as on a host
   that runs the kernel in exactly this long. *)
let nominal_s = 0.030

(* [t] wall seconds measured while the kernel took [kernel_s], rescaled
   to a host on which it takes [nominal_s]. *)
let normalize ~kernel_s t = t *. nominal_s /. kernel_s
