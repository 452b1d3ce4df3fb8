let crash_to_text (c : Crash.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "EOF crash report\n================\n");
  Buffer.add_string buf (Printf.sprintf "target os   : %s\n" c.Crash.os);
  Buffer.add_string buf (Printf.sprintf "kind        : %s\n" (Crash.kind_name c.Crash.kind));
  Buffer.add_string buf (Printf.sprintf "operation   : %s()\n" c.Crash.operation);
  Buffer.add_string buf (Printf.sprintf "scope       : %s\n" c.Crash.scope);
  Buffer.add_string buf
    (Printf.sprintf "detected by : %s monitor\n" (Crash.monitor_name c.Crash.detected_by));
  Buffer.add_string buf (Printf.sprintf "iteration   : %d\n" c.Crash.iteration);
  Buffer.add_string buf (Printf.sprintf "\nmessage:\n  %s\n" c.Crash.message);
  if c.Crash.backtrace <> [] then begin
    Buffer.add_string buf "\nbacktrace:\n";
    List.iteri
      (fun i frame -> Buffer.add_string buf (Printf.sprintf "  Level %d: %s\n" (i + 1) frame))
      c.Crash.backtrace
  end;
  if c.Crash.program <> "" then
    Buffer.add_string buf (Printf.sprintf "\ntriggering program:\n%s\n" c.Crash.program);
  Buffer.contents buf

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' then c else '_') name

let save_crashes ~dir crashes =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let paths =
      List.mapi
        (fun i crash ->
          let path =
            Filename.concat dir
              (Printf.sprintf "crash-%02d-%s.txt" (i + 1) (sanitize crash.Crash.operation))
          in
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (crash_to_text crash));
          path)
        crashes
    in
    Ok paths
  with Sys_error e -> Error e

(* A wall-clock-free fingerprint of a campaign's observable results:
   identical bits in, identical line out. CI reruns a farm campaign and
   diffs this line to catch scheduling nondeterminism, and the
   differential backend check compares link and native runs through it —
   which is why virtual time must stay out of the digest: the two
   backends agree on every observable result but not on the clock. *)
let digest_line ~label ~coverage ~bitmap ~corpus ~crashes ~crash_events ~executed
    ~iterations_done =
  let b = Buffer.create 4096 in
  List.iter
    (fun bit -> Buffer.add_string b (string_of_int bit ^ ","))
    (Eof_util.Bitset.to_list bitmap);
  Buffer.add_char b '|';
  List.iter (fun p -> Buffer.add_string b (string_of_int (Prog.hash p) ^ ",")) corpus;
  Buffer.add_char b '|';
  List.iter (fun c -> Buffer.add_string b (Crash.dedup_key c ^ ",")) crashes;
  Buffer.add_string b
    (Printf.sprintf "|%d|%d|%d|%d" coverage crash_events executed iterations_done);
  Printf.sprintf
    "digest %s coverage=%d crashes=%d crash_events=%d executed=%d iterations=%d corpus=%d crc=%08lx"
    label coverage (List.length crashes) crash_events executed iterations_done
    (List.length corpus)
    (Eof_util.Crc32.digest_string (Buffer.contents b))

let campaign_digest (o : Campaign.outcome) =
  digest_line ~label:"campaign" ~coverage:o.Campaign.coverage
    ~bitmap:o.Campaign.coverage_bitmap ~corpus:o.Campaign.final_corpus
    ~crashes:o.Campaign.crashes ~crash_events:o.Campaign.crash_events
    ~executed:o.Campaign.executed_programs ~iterations_done:o.Campaign.iterations_done

let farm_digest (o : Farm.outcome) =
  digest_line
    ~label:(Printf.sprintf "farm boards=%d" o.Farm.boards)
    ~coverage:o.Farm.coverage ~bitmap:o.Farm.coverage_bitmap
    ~corpus:o.Farm.final_corpus ~crashes:o.Farm.crashes
    ~crash_events:o.Farm.crash_events ~executed:o.Farm.executed_programs
    ~iterations_done:o.Farm.iterations_done

(* The fleet-level fingerprint composes per-tenant digest lines in
   tenant order — campaigns, farms and whole hub runs are all
   fingerprintable the same way, and CI can [cmp] a two-tenant fleet
   soak exactly as it does a single farm. *)
let fleet_digest tenants =
  let tenants = List.sort (fun (a, _) (b, _) -> compare a b) tenants in
  let b = Buffer.create 1024 in
  List.iter
    (fun (tenant, digest) ->
      Buffer.add_string b tenant;
      Buffer.add_char b '=';
      Buffer.add_string b digest;
      Buffer.add_char b '\n')
    tenants;
  Printf.sprintf "digest fleet tenants=%d crc=%08lx" (List.length tenants)
    (Eof_util.Crc32.digest_string (Buffer.contents b))
