(* Per-layer timings made from the benchmark's own code: each function
   calls one layer's public entry points on inputs drawn from the
   workload's API table and campaign seed, and reports wall time (and,
   where exact, allocation) per call. *)

module Campaign = Eof_core.Campaign
module Gen = Eof_core.Gen
module Prog = Eof_core.Prog
module Corpus = Eof_core.Corpus
module Osbuild = Eof_os.Osbuild
module Board = Eof_hw.Board
module Protocol = Eof_hub.Protocol
module Journal = Eof_hub.Journal
module Worker = Eof_hub.Worker

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A personality as [eof serve] resolves it. *)
type personality = Worker.target

let personality os =
  match Workload.resolve os with Ok p -> p | Error e -> failwith e

let build (p : personality) = p.Worker.mk_build 0

let max_len = Campaign.default_config.Campaign.max_prog_len

(* [n] programs, alternating fresh generation and mutation of the
   previous one, as the campaign loop does. Returns the programs, wall
   ns per program and minor-heap words per program. *)
let gen p ~seed ~n =
  let g =
    Gen.create ~rng:(Eof_util.Rng.create seed) ~spec:p.Worker.spec ~table:p.Worker.table ()
  in
  let w0 = Gc.minor_words () in
  let progs, s =
    time (fun () ->
        let rec go i prev acc =
          if i = n then List.rev acc
          else
            let prog =
              match prev with
              | Some prev when i mod 2 = 1 -> Gen.mutate g prev ~max_len
              | _ -> Gen.generate g ~max_len
            in
            go (i + 1) (Some prog) (prog :: acc)
        in
        go 0 None [])
  in
  let words = Gc.minor_words () -. w0 in
  (progs, s *. 1e9 /. float_of_int n, words /. float_of_int n)

(* Wire encoding into one reused buffer, as the delivery path does. *)
let wire p progs =
  let endianness = (Board.profile (Osbuild.board (build p))).Board.arch.Eof_hw.Arch.endianness in
  let wires = List.map Prog.to_wire progs in
  let buf = Buffer.create 4096 in
  let (), s =
    time (fun () ->
        List.iter
          (fun w ->
            Buffer.clear buf;
            ignore (Eof_agent.Wire.encode_into ~endianness buf w))
          wires)
  in
  s *. 1e9 /. float_of_int (List.length wires)

(* Corpus admission and scheduling: ns per [add], ns per [next]. *)
let corpus progs ~seed =
  let c = Corpus.create ~rng:(Eof_util.Rng.create seed) () in
  let n = List.length progs in
  let (), add_s =
    time (fun () ->
        List.iteri
          (fun i prog -> ignore (Corpus.add c ~prog ~new_edges:(1 + (i mod 4)) ~crashed:false))
          progs)
  in
  let (), next_s =
    time (fun () ->
        for _ = 1 to n do
          ignore (Corpus.next c ~target:Corpus.default_target)
        done)
  in
  (add_s *. 1e9 /. float_of_int n, next_s *. 1e9 /. float_of_int n)

(* Cross-personality retyping, µs per program. *)
let transplant ~dst progs =
  let (), s =
    time (fun () ->
        List.iter
          (fun prog ->
            ignore
              (Eof_core.Transplant.retype ~dst_spec:dst.Worker.spec
                 ~dst_table:dst.Worker.table prog))
          progs)
  in
  s *. 1e6 /. float_of_int (List.length progs)

(* Log monitor throughput, ns per KiB scanned, over the crash reports
   of the run (the panic and assertion text the monitor exists to
   find). Scans repeat until about a MiB has been read. *)
let monitor crashes =
  let text =
    match crashes with
    | [] -> "boot ok\n"
    | cs -> String.concat "\n" (List.map Eof_core.Report.crash_to_text cs)
  in
  let len = String.length text in
  let reps = max 1 ((1 lsl 20) / len) in
  let (), s =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Eof_core.Monitor.scan text)
        done)
  in
  s *. 1e9 /. (float_of_int (len * reps) /. 1024.)

(* [Board.boot_ok] on a freshly installed board, µs per call. *)
let boot_ok p ~n =
  let board = Osbuild.board (build p) in
  let ok = ref true in
  let (), s =
    time (fun () ->
        for _ = 1 to n do
          ok := Board.boot_ok board && !ok
        done)
  in
  if not !ok then failwith "boot_ok refused a pristine image";
  s *. 1e6 /. float_of_int n

type hub = {
  frames : int;
  journal_bytes : int;
  codec_ns_per_frame : float;
  us_per_append : float;
  replay_ms : float;
}

(* The journal's read path (replay), the codec over its frames, and the
   write path (appending every frame to a fresh journal). *)
let hub ~journal ~scratch =
  match time (fun () -> Journal.replay journal) with
  | Error e, _ -> failwith ("journal replay: " ^ e)
  | Ok frames, replay_s ->
    let n = List.length frames in
    let (), codec_s =
      time (fun () ->
          List.iter
            (fun m ->
              match Protocol.decode (Protocol.encode m) with
              | Ok _ -> ()
              | Error e -> failwith ("codec: " ^ Protocol.error_to_string e))
            frames)
    in
    Workload.remove_file scratch;
    let j =
      match Journal.open_ scratch with Ok j -> j | Error e -> failwith ("journal: " ^ e)
    in
    let (), append_s = time (fun () -> List.iter (Journal.append j) frames) in
    Journal.close j;
    Workload.remove_file scratch;
    let per x = if n = 0 then 0. else x /. float_of_int n in
    {
      frames = n;
      journal_bytes = (Unix.stat journal).Unix.st_size;
      codec_ns_per_frame = per (codec_s *. 1e9);
      us_per_append = per (append_s *. 1e6);
      replay_ms = replay_s *. 1e3;
    }
