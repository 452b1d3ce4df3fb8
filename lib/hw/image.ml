type t = { table : Partition.t; blobs : (string * string) list }

let pseudo_blob rng len =
  Bytes.unsafe_to_string (Eof_util.Rng.bytes rng len)

let synthesize ~table ~seed ?(payloads = []) () =
  let rng = Eof_util.Rng.create seed in
  let blobs =
    List.map
      (fun (e : Partition.entry) ->
        match List.assoc_opt e.name payloads with
        | Some p ->
          let p =
            if String.length p >= e.size then String.sub p 0 e.size
            else p ^ String.make (e.size - String.length p) '\xFF'
          in
          (e.name, p)
        | None -> (e.name, pseudo_blob rng e.size))
      table
  in
  { table; blobs }

(* A partition's manifest CRC covers its full extent: the blob padded to
   the partition size with erased (0xFF) bytes, matching what a verify
   pass reads back from flash. *)
let padded_blob (e : Partition.entry) blob =
  if String.length blob = e.size then blob
  else if String.length blob > e.size then String.sub blob 0 e.size
  else blob ^ String.make (e.size - String.length blob) '\xFF'

let compute_manifest t =
  List.map
    (fun (e : Partition.entry) ->
      let blob = List.assoc e.name t.blobs in
      (e.name, Eof_util.Crc32.digest_string (padded_blob e blob)))
    t.table

(* Manifest CRCs walk every partition byte; with builds sharing one
   synthesized image across a whole fleet (see Osbuild), cache them per
   image identity so N boards pay the walk once. Keyed by physical
   equality — the blobs are immutable strings, so an [==]-equal image
   always has the same manifest. The mutex keeps the memo safe when
   images are verified from several domains. *)
let manifest_lock = Mutex.create ()

let manifest_memo : (t * (string * int32) list) list ref = ref []

let manifest t =
  Mutex.protect manifest_lock (fun () ->
      match List.assq_opt t !manifest_memo with
      | Some m -> m
      | None ->
        let m = compute_manifest t in
        if List.length !manifest_memo >= 16 then manifest_memo := [];
        manifest_memo := (t, m) :: !manifest_memo;
        m)

let flash_all t flash =
  List.iter
    (fun (e : Partition.entry) ->
      let blob = List.assoc e.name t.blobs in
      Flash.write_image flash ~addr:(Flash.base flash + e.offset) (padded_blob e blob))
    t.table

let corrupted ~table ~manifest flash =
  List.filter_map
    (fun (name, expected) ->
      match Partition.find table name with
      | None -> Some name
      | Some (e : Partition.entry) ->
        let actual = Flash.crc_range flash ~addr:(Flash.base flash + e.offset) ~len:e.size in
        if Int32.equal actual expected then None else Some name)
    manifest
