type t = { oc : out_channel }

let open_ path =
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
  | oc -> Ok { oc }
  | exception Sys_error msg -> Error msg

let append t msg =
  output_string t.oc (Protocol.encode msg);
  flush t.oc

let close t = close_out t.oc

(* Walk the file frame by frame. Anything short or corrupt at the tail
   is the torn write of a killed hub — stop there and keep the prefix.
   A bad frame *followed by more data* would indicate real corruption,
   but distinguishing it buys nothing: replay semantics only promise a
   prefix of history, and the CRC already localises the damage. A
   complete, CRC-clean frame of another protocol version is no torn
   write: it is a journal this hub cannot read, and replaying the prefix
   before it would silently restart every campaign. *)
let replay path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let buf = really_input_string ic len in
        let rec go off acc =
          if off >= len then Ok (List.rev acc)
          else
            (* frame_size reads only the header: copy just that much,
               not the rest of the journal once per frame. *)
            let header = String.sub buf off (min Protocol.header_bytes (len - off)) in
            match Protocol.frame_size header with
            | Ok (Some n) when off + n <= len -> (
              match Protocol.decode (String.sub buf off n) with
              | Ok msg -> go (off + n) (msg :: acc)
              | Error (Protocol.Bad_version v) ->
                Error
                  (Printf.sprintf "journal written by protocol v%d; this hub speaks v%d" v
                     Protocol.version)
              | Error _ -> Ok (List.rev acc))
            | Ok _ | Error _ -> Ok (List.rev acc)
        in
        go 0 [])
  with Sys_error msg -> Error msg
