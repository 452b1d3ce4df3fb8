open Eof_hw
open Eof_os
module Rng = Eof_util.Rng
module Wire = Eof_agent.Wire
module Api = Eof_rtos.Api

let build_for spec = Osbuild.make ~board_profile:Profiles.qemu_pok spec

let decode_genome ~table genome =
  let entries = Array.of_list table.Api.entries in
  let n = Array.length entries in
  let pos = ref 0 in
  let len = String.length genome in
  let byte () =
    if !pos >= len then None
    else begin
      let b = Char.code genome.[!pos] in
      incr pos;
      Some b
    end
  in
  let calls = ref [] in
  let call_index = ref 0 in
  let continue = ref true in
  while !continue do
    match byte () with
    | None -> continue := false
    | Some b ->
      let api_index = b mod n in
      let entry = entries.(api_index) in
      let args =
        List.map
          (fun (_, ty) ->
            match ty with
            | Api.A_int _ | Api.A_flags _ | Api.A_ptr _ ->
              (* four raw bytes, no range knowledge *)
              let v = ref 0L in
              for _ = 1 to 4 do
                match byte () with
                | Some b -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
                | None -> ()
              done;
              Wire.W_int !v
            | Api.A_str _ | Api.A_buf _ ->
              let slice_len = match byte () with Some b -> b mod 64 | None -> 0 in
              let available = max 0 (len - !pos) in
              let take = min slice_len available in
              let s = String.sub genome !pos take in
              pos := !pos + take;
              Wire.W_str s
            | Api.A_res _ ->
              (match byte () with
               | Some b when !call_index > 0 -> Wire.W_res (b mod !call_index)
               | _ -> Wire.W_int 0L))
          entry.Api.args
      in
      calls := { Wire.api_index; args } :: !calls;
      incr call_index;
      if !call_index >= Wire.max_calls then continue := false
  done;
  List.rev !calls

let run ~seed ~iterations build =
  let table = Osbuild.api_signatures build in
  let rng = Rng.create seed in
  let bufgen = Bufgen.create ~rng:(Rng.split rng) ~max_len:192 in
  let corpus = Bufgen.Corpus.create ~rng:(Rng.split rng) in
  Ok
    (Emu.run ~iterations build
       {
         Emu.next =
           (fun () ->
             match Bufgen.Corpus.pick corpus with
             | Some seed when Rng.chance rng 0.8 -> Bufgen.havoc bufgen seed
             | _ -> Bufgen.fresh bufgen);
         program = decode_genome ~table;
         (* Whole-VM faults only: no call attribution, no hang class. *)
         death =
           (fun stop _ ->
             {
               Emu.kind = Eof_core.Crash.Kernel_panic;
               operation = "genome";
               message =
                 (match stop with Emu.Dead -> "VM crashed" | Emu.Stuck -> "VM timeout");
               program = "<genome>";
             });
         admit =
           (fun genome ~new_edges:_ -> ignore (Bufgen.Corpus.add corpus genome : bool));
         corpus_size = (fun () -> Bufgen.Corpus.size corpus);
         final_corpus = (fun () -> []);
       })
