open Eof_hw
open Eof_os
module Machine = Eof_agent.Machine
module Obs = Eof_obs.Obs
module Eof_error = Eof_util.Eof_error

type verdict = Alive | First_observation | Connection_lost | Pc_stalled of int

type error = Eof_error.t

let error_to_string = Eof_error.to_string

type t = {
  threshold : int;
  obs : Obs.t;
  mutable last_pc : int option;
  mutable streak : int;
}

let default_stall_threshold = 3

let create ?obs ?(stall_threshold = default_stall_threshold) () =
  if stall_threshold < 1 then invalid_arg "Liveness.create: stall_threshold must be >= 1";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  { threshold = stall_threshold; obs; last_pc = None; streak = 0 }

let stall_threshold t = t.threshold

let stall_streak t = t.streak

let reset t =
  t.last_pc <- None;
  t.streak <- 0

let verdict_name = function
  | Alive -> "alive"
  | First_observation -> "first-observation"
  | Connection_lost -> "connection-lost"
  | Pc_stalled _ -> "pc-stalled"

let observe t verdict ~pc =
  if Obs.active t.obs then
    Obs.emit t.obs
      (Obs.Event.Liveness_verdict { verdict = verdict_name verdict; pc });
  verdict

let check t machine =
  match Machine.read_pc machine with
  | Error _ -> observe t Connection_lost ~pc:(-1)
  | Ok pc ->
    (match t.last_pc with
     | None ->
       t.last_pc <- Some pc;
       t.streak <- 0;
       observe t First_observation ~pc
     | Some prev when prev = pc ->
       (* One repeated sample is routine — a target parked at a
          breakpoint or polling loop re-reads the same PC. Only a run of
          [threshold] consecutive identical samples is declared a stall. *)
       t.streak <- t.streak + 1;
       if t.streak >= t.threshold then observe t (Pc_stalled pc) ~pc
       else observe t Alive ~pc
     | Some _ ->
       t.last_pc <- Some pc;
       t.streak <- 0;
       observe t Alive ~pc)

let ( let* ) = Result.bind

(* A failed flash step names the partition and the step (erase / which
   chunk / done) in its context — the Session-level retry already
   stamped its "after N attempts" breadcrumb below it, so the boundary
   string reads e.g.
   "reflash partition app: write chunk +0x1800: after 3 attempts:
    debug link timeout". *)
let restore_partitions ?obs machine ~flash_base ~image ~table =
  let obs = match obs with Some o -> o | None -> Machine.obs machine in
  let rec reflash count = function
    | [] -> Ok count
    | (e : Partition.entry) :: rest ->
      let in_partition step r =
        Result.map_error
          (fun err ->
            Eof_error.with_context
              (Printf.sprintf "reflash partition %s" e.Partition.name)
              (Eof_error.with_context step err))
          r
      in
      (match List.assoc_opt e.Partition.name image.Image.blobs with
       | None -> Error (Eof_error.missing_blob e.Partition.name)
       | Some blob ->
         let* () =
           in_partition "erase"
             (Machine.flash_erase machine ~addr:(flash_base + e.Partition.offset)
                ~len:e.Partition.size)
         in
         (* Program in bounded chunks, as a probe constrained by its
            packet size would. The native backend keeps the same chunk
            walk (flash wear and event streams stay comparable) even
            though nothing limits its write size. *)
         let chunk = 2048 in
         let rec program off =
           if off >= String.length blob then Ok ()
           else
             let len = min chunk (String.length blob - off) in
             let* () =
               in_partition
                 (Printf.sprintf "write chunk +0x%x" off)
                 (Machine.flash_write machine
                    ~addr:(flash_base + e.Partition.offset + off)
                    (String.sub blob off len))
             in
             program (off + len)
         in
         (match program 0 with
          | Error _ as err -> err
          | Ok () ->
            let* () = in_partition "done" (Machine.flash_done machine) in
            if Obs.active obs then
              Obs.emit obs
                (Obs.Event.Reflash_partition
                   { partition = e.Partition.name; bytes = String.length blob });
            reflash (count + 1) rest))
  in
  reflash 0 table

let restore ?obs machine ~build =
  let image = Osbuild.image build in
  let flash_base = (Board.profile (Osbuild.board build)).Board.flash_base in
  let obs = match obs with Some o -> o | None -> Machine.obs machine in
  let restored =
    if Machine.has_snapshot machine then
      (* O(dirty pages) fast path: a pristine snapshot is armed (see
         Campaign's fresh-per-program reset policy), so one QSnapshot
         restore replaces the whole partition rewrite. Reported partition
         count stays the table length — the same state is made pristine. *)
      Result.map_error
        (Eof_error.with_context
           (Printf.sprintf "snapshot restore of %d partition(s)"
              (List.length image.Image.table)))
        (Result.map
           (fun (_dirty : int) -> List.length image.Image.table)
           (Machine.snapshot_restore machine))
    else restore_partitions ~obs machine ~flash_base ~image ~table:image.Image.table
  in
  match restored with
  | Error _ as e -> e
  | Ok count ->
    let* () =
      Result.map_error (Eof_error.with_context "post-restore reset")
        (Machine.reset_target machine)
    in
    if Obs.active obs then
      Obs.emit obs (Obs.Event.Restore_done { partitions = count });
    Ok count

let reboot_only machine =
  match Machine.reset_target machine with Ok () -> Ok () | Error e -> Error e
