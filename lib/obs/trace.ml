(* Reader side of the JSONL trace format: a hand-rolled parser for the
   exact flat-object grammar the jsonl sink writes (numbers, strings,
   booleans — no nesting), so the obs library needs no JSON dependency. *)

type line = {
  t : float;
  board : int option;
  tenant : string option;
  ev : string;
  fields : (string * Obs.value) list;
}

(* --- flat JSON object parsing ------------------------------------------ *)

exception Bad of string

let parse_object s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else raise (Bad (Printf.sprintf "expected %C at %d" c !pos))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then raise (Bad "dangling escape");
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           if !pos + 4 >= n then raise (Bad "short \\u escape");
           let hex = String.sub s (!pos + 1) 4 in
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> raise (Bad ("bad \\u escape " ^ hex)));
           pos := !pos + 4
         | c -> raise (Bad (Printf.sprintf "unknown escape \\%c" c)));
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Obs.V_str (parse_string ())
    | Some 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4;
        Obs.V_bool true
      end
      else raise (Bad "bad literal")
    | Some 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5;
        Obs.V_bool false
      end
      else raise (Bad "bad literal")
    | Some c when c = '-' || (c >= '0' && c <= '9') ->
      let start = !pos in
      let is_float = ref false in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' -> true
            | '.' | 'e' | 'E' ->
              is_float := true;
              true
            | _ -> false)
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      if !is_float then
        (match float_of_string_opt tok with
         | Some f -> Obs.V_float f
         | None -> raise (Bad ("bad number " ^ tok)))
      else
        (match int_of_string_opt tok with
         | Some i -> Obs.V_int i
         | None -> raise (Bad ("bad number " ^ tok)))
    | _ -> raise (Bad (Printf.sprintf "unexpected value at %d" !pos))
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = Some '}' then incr pos
  else begin
    let rec members () =
      let key = (skip_ws (); parse_string ()) in
      expect ':';
      let v = parse_value () in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
        incr pos;
        members ()
      | Some '}' -> incr pos
      | _ -> raise (Bad "expected , or }")
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then raise (Bad "trailing bytes");
  List.rev !fields

let parse_line s =
  match parse_object s with
  | exception Bad e -> Error e
  | fields ->
    let t =
      match List.assoc_opt "t" fields with
      | Some (Obs.V_float f) -> f
      | Some (Obs.V_int i) -> float_of_int i
      | _ -> raise_notrace Exit
    in
    let board =
      match List.assoc_opt "board" fields with
      | Some (Obs.V_int i) -> Some i
      | _ -> None
    in
    let tenant =
      match List.assoc_opt "tenant" fields with
      | Some (Obs.V_str s) -> Some s
      | _ -> None
    in
    let ev =
      match List.assoc_opt "ev" fields with Some (Obs.V_str s) -> s | _ -> ""
    in
    if ev = "" then Error "line has no \"ev\" field"
    else
      Ok
        {
          t;
          board;
          tenant;
          ev;
          fields =
            List.filter
              (fun (k, _) -> k <> "t" && k <> "board" && k <> "tenant" && k <> "ev")
              fields;
        }

let parse_line s =
  match parse_line s with exception Exit -> Error "line has no \"t\" field" | r -> r

(* --- summarization ------------------------------------------------------ *)

type summary = {
  events : int;
  bad_lines : int;
  boards : int;
  t_last : float;
  by_event : (string * int) list;
  exchanges : int;
  timeouts : int;
  bytes_tx : int;
  bytes_rx : int;
  batches : int;
  batch_ops : int;
  payloads : int;
  crashes : int;
  corpus_admits : int;
  new_edges : int;
  coverage_final : int option;
  spans : (string * int * float) list;
  growth : (float * int) list;
}

let int_field line key =
  match List.assoc_opt key line.fields with Some (Obs.V_int i) -> i | _ -> 0

let float_field line key =
  match List.assoc_opt key line.fields with
  | Some (Obs.V_float f) -> f
  | Some (Obs.V_int i) -> float_of_int i
  | _ -> 0.

let str_field line key =
  match List.assoc_opt key line.fields with Some (Obs.V_str s) -> s | _ -> ""

let bool_field line key =
  match List.assoc_opt key line.fields with Some (Obs.V_bool b) -> b | _ -> false

let summarize lines =
  let events = ref 0 and bad = ref 0 in
  let boards = Hashtbl.create 8 in
  let t_last = ref 0. in
  let by_event = Hashtbl.create 16 in
  let exchanges = ref 0 and timeouts = ref 0 in
  let bytes_tx = ref 0 and bytes_rx = ref 0 in
  let batches = ref 0 and batch_ops = ref 0 in
  let payloads = ref 0 and crashes = ref 0 in
  let corpus_admits = ref 0 and new_edges = ref 0 in
  let coverage_final = ref None in
  let spans = Hashtbl.create 16 in
  let growth = ref [] in
  Seq.iter
    (fun raw ->
      let raw = String.trim raw in
      if raw <> "" then
        match parse_line raw with
        | Error _ -> incr bad
        | Ok line ->
          incr events;
          (match line.board with Some b -> Hashtbl.replace boards b () | None -> ());
          if line.t > !t_last then t_last := line.t;
          (let r =
             match Hashtbl.find_opt by_event line.ev with
             | Some r -> r
             | None ->
               let r = ref 0 in
               Hashtbl.replace by_event line.ev r;
               r
           in
           incr r);
          (match line.ev with
           | "exchange" ->
             incr exchanges;
             if bool_field line "timeout" then incr timeouts;
             bytes_tx := !bytes_tx + int_field line "tx";
             bytes_rx := !bytes_rx + int_field line "rx"
           | "batch" ->
             incr batches;
             batch_ops := !batch_ops + int_field line "ops"
           | "payload" ->
             incr payloads;
             let edges = int_field line "new_edges" in
             if edges > 0 then begin
               new_edges := !new_edges + edges;
               growth := (line.t, !new_edges) :: !growth
             end
           | "crash" -> incr crashes
           | "corpus-admit" -> incr corpus_admits
           | "epoch-sync" -> coverage_final := Some (int_field line "coverage")
           | "span" ->
             let name = str_field line "name" in
             let count, total =
               match Hashtbl.find_opt spans name with
               | Some ct -> ct
               | None ->
                 let ct = (ref 0, ref 0.) in
                 Hashtbl.replace spans name ct;
                 ct
             in
             incr count;
             total := !total +. float_field line "dur_us"
           | _ -> ()))
    lines;
  {
    events = !events;
    bad_lines = !bad;
    boards = Hashtbl.length boards;
    t_last = !t_last;
    by_event =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) by_event []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    exchanges = !exchanges;
    timeouts = !timeouts;
    bytes_tx = !bytes_tx;
    bytes_rx = !bytes_rx;
    batches = !batches;
    batch_ops = !batch_ops;
    payloads = !payloads;
    crashes = !crashes;
    corpus_admits = !corpus_admits;
    new_edges = !new_edges;
    coverage_final = !coverage_final;
    spans =
      Hashtbl.fold (fun k (c, t) acc -> (k, !c, !t) :: acc) spans []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b);
    growth = List.rev !growth;
  }

let of_file path =
  let ic = open_in path in
  let rec seq () =
    match input_line ic with
    | line -> Seq.Cons (line, seq)
    | exception End_of_file -> Seq.Nil
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> summarize seq)

(* --- rendering ----------------------------------------------------------- *)

let render s =
  let module T = Eof_util.Text_table in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "trace: %d events%s over %.3f virtual s%s\n"
       s.events
       (if s.bad_lines > 0 then Printf.sprintf " (%d unparseable lines)" s.bad_lines
        else "")
       s.t_last
       (if s.boards > 1 then Printf.sprintf " across %d boards" s.boards else ""));
  Buffer.add_string b "\nevent counts:\n";
  Buffer.add_string b
    (T.render
       ~align:[ T.Left; T.Right ]
       ~header:[ "event"; "count" ]
       (List.map (fun (k, n) -> [ k; string_of_int n ]) s.by_event));
  if s.exchanges > 0 then begin
    Buffer.add_string b "\nlink:\n";
    Buffer.add_string b
      (T.render
         ~align:[ T.Left; T.Right ]
         ~header:[ "metric"; "value" ]
         ([ [ "exchanges"; string_of_int s.exchanges ];
            [ "timeouts"; string_of_int s.timeouts ];
            [ "bytes out"; string_of_int s.bytes_tx ];
            [ "bytes in"; string_of_int s.bytes_rx ] ]
         @ (if s.batches > 0 then
              [ [ "vBatch exchanges"; string_of_int s.batches ];
                [ "vBatch sub-ops"; string_of_int s.batch_ops ] ]
            else [])
         @
         if s.payloads > 0 then
           [ [ "exchanges/payload";
               Printf.sprintf "%.2f" (float_of_int s.exchanges /. float_of_int s.payloads) ] ]
         else []))
  end;
  if s.spans <> [] then begin
    Buffer.add_string b "\ntime per phase (span totals):\n";
    let total_us = s.t_last *. 1e6 in
    Buffer.add_string b
      (T.render
         ~align:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
         ~header:[ "span"; "count"; "total ms"; "avg us"; "% of trace" ]
         (List.map
            (fun (name, count, us) ->
              [ name;
                string_of_int count;
                Printf.sprintf "%.2f" (us /. 1e3);
                Printf.sprintf "%.1f" (us /. float_of_int (max 1 count));
                (if total_us > 0. then Printf.sprintf "%.1f" (100. *. us /. total_us)
                 else "n/a") ])
            s.spans))
  end;
  if s.payloads > 0 then
    Buffer.add_string b
      (Printf.sprintf "\npayloads: %d | crash events: %d | corpus admissions: %d\n"
         s.payloads s.crashes s.corpus_admits);
  (match (s.growth, s.coverage_final) with
   | [], None -> ()
   | growth, cov ->
     Buffer.add_string b "\ncoverage growth (cumulative new edges at payload events):\n";
     let n = List.length growth in
     let step = max 1 (n / 10) in
     let sampled =
       List.filteri (fun i _ -> i mod step = 0 || i = n - 1) growth
     in
     Buffer.add_string b
       (T.render
          ~align:[ T.Right; T.Right ]
          ~header:[ "virtual s"; "edges" ]
          (List.map
             (fun (t, e) -> [ Printf.sprintf "%.3f" t; string_of_int e ])
             sampled));
     (match cov with
      | Some c ->
        Buffer.add_string b
          (Printf.sprintf "final global coverage at last epoch sync: %d edges\n" c)
      | None -> ()));
  if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '\n' then
    Buffer.add_char b '\n';
  Buffer.contents b
