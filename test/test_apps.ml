open Eof_apps
module Osbuild = Eof_os.Osbuild
module Target = Eof_exec.Target

(* The apps' instrumentation handles as their personalities get them:
   the [ctx.instr] a real build hands to [install], from uninstrumented
   builds. Every test runs under [Target.run_silent], which swallows the
   sites the apps cross. *)
let handles_of spec board_profile =
  lazy
    (let handles = ref (fun _ -> invalid_arg "no handles captured") in
     let install ctx =
       handles := ctx.Osbuild.instr;
       spec.Osbuild.install ctx
     in
     ignore
       (Osbuild.make ~instrument:Osbuild.Instrument_none ~board_profile
          { spec with Osbuild.install }
         : Osbuild.t);
     !handles)

let instr handles name () = (Lazy.force handles) name

let freertos = handles_of Eof_os.Freertos.spec Eof_hw.Profiles.esp32_devkitc
let rtthread = handles_of Eof_os.Rtthread.spec Eof_hw.Profiles.stm32f4_disco
let json_instr = instr freertos "frt/json"
let http_instr = instr freertos "frt/http"
let serial_instr = instr rtthread "rtt/serial"
let sal_instr = instr rtthread "rtt/sal"

let silent f () = Target.run_silent f

let parse_ok s =
  match Json.parse ~instr:(json_instr ()) s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "parse %S: %s" s e)

let test_json_values () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_ok " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Num 42.);
  Alcotest.(check bool) "neg frac exp" true
    (parse_ok "-3.5e2" = Json.Num (-350.));
  Alcotest.(check bool) "string" true (parse_ok "\"hi\"" = Json.Str "hi");
  Alcotest.(check bool) "escapes" true
    (parse_ok "\"a\\n\\t\\\"\\\\\"" = Json.Str "a\n\t\"\\");
  Alcotest.(check bool) "unicode" true (parse_ok "\"\\u0041\"" = Json.Str "A");
  Alcotest.(check bool) "array" true
    (parse_ok "[1, 2, 3]" = Json.Arr [ Json.Num 1.; Json.Num 2.; Json.Num 3. ]);
  Alcotest.(check bool) "object" true
    (parse_ok "{\"a\": 1, \"b\": [true]}"
    = Json.Obj [ ("a", Json.Num 1.); ("b", Json.Arr [ Json.Bool true ]) ])

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse ~instr:(json_instr ()) s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [ ""; "{"; "[1,"; "tru"; "01x"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing";
      "\"bad \\q escape\""; "{1: 2}"; "\"ctrl \x01 char\"" ]

let test_json_depth_limit () =
  let deep = String.concat "" (List.init 10 (fun _ -> "[")) ^ "1"
             ^ String.concat "" (List.init 10 (fun _ -> "]")) in
  let doc = parse_ok deep in
  Alcotest.(check int) "depth" 10 (Json.depth doc);
  (match Json.encode ~instr:(json_instr ()) ~max_depth:8 doc with
   | Error `Too_deep -> ()
   | Ok _ -> Alcotest.fail "depth limit not enforced");
  match Json.encode ~instr:(json_instr ()) ~max_depth:16 doc with
  | Ok _ -> ()
  | Error `Too_deep -> Alcotest.fail "within limit rejected"

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "v\n");
        ("n", Json.Num (-350.));
        ("b", Json.Bool true);
        ("x", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "\"q\"" ]);
      ]
  in
  match Json.encode ~instr:(json_instr ()) doc with
  | Ok text -> Alcotest.(check bool) "roundtrip" true (parse_ok text = doc)
  | Error `Too_deep -> Alcotest.fail "encode"

let http_parse s =
  match Http.parse_request ~instr:(http_instr ()) s with
  | Ok r -> r
  | Error e -> Alcotest.fail (Printf.sprintf "http parse: %s" e)

let test_http_request_line () =
  let r = http_parse "GET /status HTTP/1.1\r\nHost: dev\r\n\r\n" in
  Alcotest.(check bool) "method" true (r.Http.meth = Http.GET);
  Alcotest.(check string) "target" "/status" r.Http.target;
  Alcotest.(check (option string)) "host header" (Some "dev") (List.assoc_opt "host" r.Http.headers)

let test_http_body () =
  let r = http_parse "POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyEXTRA" in
  Alcotest.(check string) "body clipped to content-length" "body" r.Http.body;
  let r2 = http_parse "POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\nshort" in
  Alcotest.(check string) "body clipped to available" "short" r2.Http.body

let test_http_rejects () =
  List.iter
    (fun s ->
      match Http.parse_request ~instr:(http_instr ()) s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [ ""; "GET /\r\n\r\n"; "FROB / HTTP/1.1\r\n\r\n"; "GET nopath HTTP/1.1\r\n\r\n";
      "GET / FTP/9.9\r\n\r\n"; "no separator at all" ]

let make_server () =
  Http.Server.create ~instr:(http_instr ()) ~json_instr:(json_instr ())

let test_http_server_routes () =
  let server = make_server () in
  let status raw = (Http.Server.handle server raw).Http.status in
  Alcotest.(check int) "root" 200 (status "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "status" 200 (status "GET /status HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "metrics" 200 (status "GET /metrics HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "devices" 200 (status "GET /devices?limit=2 HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "404" 404 (status "GET /nope HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "bad request" 400 (status "garbage");
  Alcotest.(check int) "delete" 204 (status "DELETE /devices HTTP/1.1\r\n\r\n");
  (* The status route counts every request handled, malformed ones and
     itself included. *)
  let body = (Http.Server.handle server "GET /status HTTP/1.1\r\n\r\n").Http.body in
  Alcotest.(check bool) ("served count in " ^ body) true
    (String.starts_with ~prefix:{|{"requests":8,|} body)

let test_http_echo_json () =
  let server = make_server () in
  let post body =
    Http.Server.handle server
      (Printf.sprintf "POST /api/echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
         (String.length body) body)
  in
  let ok = post "{\"k\": 1}" in
  Alcotest.(check int) "echo ok" 200 ok.Http.status;
  Alcotest.(check bool) "echo body" true (ok.Http.body = "{\"k\":1}");
  Alcotest.(check int) "echo bad json" 400 (post "{nope").Http.status

let test_serial_stream_mode () =
  let reg = Eof_rtos.Kobj.create () in
  let obj = Serial.create ~reg ~name:"uart0" ~open_flag:Serial.flag_stream in
  let dev = Option.get (Serial.of_obj obj) in
  let panic = { Eof_rtos.Panic.os_name = "T"; panic_site = 1; assert_site = 2 } in
  let out = ref "" in
  Eof_exec.Target.run_silent (fun () ->
      match Serial.write ~panic ~instr:(serial_instr ()) dev "a\nb" with
      | Ok n -> out := string_of_int n
      | Error _ -> Alcotest.fail "write failed");
  (* run_silent discards UART; what matters is the return count (pre-
     translation length) and the stale-path below. *)
  Alcotest.(check string) "write count" "3" !out

let test_serial_stale_faults () =
  let reg = Eof_rtos.Kobj.create () in
  let obj = Serial.create ~reg ~name:"uart0" ~open_flag:0 in
  let dev = Option.get (Serial.of_obj obj) in
  Serial.unregister dev;
  let panic = { Eof_rtos.Panic.os_name = "T"; panic_site = 1; assert_site = 2 } in
  match
    Eof_exec.Target.run_silent (fun () ->
        match Serial.write ~panic ~instr:(serial_instr ()) dev "x" with
        | Ok _ -> `No_fault
        | Error _ -> `Error)
  with
  | `No_fault -> Alcotest.fail "stale write did not fault"
  | `Error -> Alcotest.fail "stale write returned an error instead of faulting"
  | exception Eof_hw.Fault.Trap _ -> ()

(* The BSD constants the SAL accepts. *)
let af_inet = 2

let sock_stream = 1

let sock_dgram = 2

let test_sal_socket_validation () =
  let reg = Eof_rtos.Kobj.create () in
  let logged = ref [] in
  let sal =
    Sal.create ~reg ~instr:(sal_instr ()) ~console:(fun s -> logged := s :: !logged)
  in
  (match Sal.socket sal ~domain:af_inet ~sock_type:sock_dgram ~protocol:0 with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "valid socket rejected");
  Alcotest.(check int) "creation attempt logged via console" 1 (List.length !logged);
  (match Sal.socket sal ~domain:12345 ~sock_type:1 ~protocol:0 with
   | Error e -> Alcotest.(check int64) "bad domain" Eof_rtos.Kerr.einval e
   | Ok _ -> Alcotest.fail "bad domain accepted");
  (* The attempt is logged before validation (Figure 6's call chain). *)
  Alcotest.(check int) "rejected attempt still logged" 2 (List.length !logged)

let test_sal_lifecycle () =
  let reg = Eof_rtos.Kobj.create () in
  let sal = Sal.create ~reg ~instr:(sal_instr ()) ~console:(fun _ -> ()) in
  let sock =
    match Sal.socket sal ~domain:af_inet ~sock_type:sock_stream ~protocol:0 with
    | Ok obj -> Option.get (Sal.of_obj obj)
    | Error _ -> Alcotest.fail "socket"
  in
  (match Sal.listen sal sock ~backlog:4 with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "listen before bind accepted");
  (match Sal.bind sal sock ~port:8080 with Ok () -> () | Error _ -> Alcotest.fail "bind");
  (match Sal.listen sal sock ~backlog:4 with Ok () -> () | Error _ -> Alcotest.fail "listen");
  (match Sal.sendto sal sock (String.make 1473 'x') with
   | Error e -> Alcotest.(check int64) "over mtu" Eof_rtos.Kerr.enospc e
   | Ok _ -> Alcotest.fail "oversized datagram accepted");
  (match Sal.sendto sal sock "ping" with Ok 4 -> () | _ -> Alcotest.fail "send");
  (match Sal.close sal sock with Ok () -> () | Error _ -> Alcotest.fail "close");
  match Sal.sendto sal sock "x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "send on closed socket accepted"

(* Property: JSON parse/encode round-trips for generated documents. *)
let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Num (float_of_int i)) small_int;
                map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 8));
              ]
          else
            oneof
              [
                map (fun xs -> Json.Arr xs) (list_size (0 -- 3) (self (n / 2)));
                map
                  (fun kvs ->
                    Json.Obj (List.mapi (fun i (_, v) -> (Printf.sprintf "k%d" i, v)) kvs))
                  (list_size (0 -- 3) (pair (return ()) (self (n / 2))));
              ])
        (min n 6))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json roundtrip" ~count:200 (QCheck.make json_gen) (fun doc ->
      Target.run_silent (fun () ->
          match Json.encode ~instr:(json_instr ()) ~max_depth:max_int doc with
          | Error `Too_deep -> false
          | Ok text ->
            (match Json.parse ~instr:(json_instr ()) text with
             | Ok doc' -> doc = doc'
             | Error _ -> false)))

let prop_json_parser_total =
  QCheck.Test.make ~name:"json parser never raises" ~count:500 QCheck.string (fun s ->
      Target.run_silent (fun () ->
          match Json.parse ~instr:(json_instr ()) s with Ok _ | Error _ -> true))

let prop_http_parser_total =
  QCheck.Test.make ~name:"http parser never raises" ~count:500 QCheck.string (fun s ->
      Target.run_silent (fun () ->
          match Http.parse_request ~instr:(http_instr ()) s with Ok _ | Error _ -> true))

let suite =
  [
    Alcotest.test_case "json values" `Quick (silent test_json_values);
    Alcotest.test_case "json rejects" `Quick (silent test_json_rejects);
    Alcotest.test_case "json depth limit" `Quick (silent test_json_depth_limit);
    Alcotest.test_case "json roundtrip" `Quick (silent test_json_roundtrip);
    Alcotest.test_case "http request line" `Quick (silent test_http_request_line);
    Alcotest.test_case "http body" `Quick (silent test_http_body);
    Alcotest.test_case "http rejects" `Quick (silent test_http_rejects);
    Alcotest.test_case "http server routes" `Quick (silent test_http_server_routes);
    Alcotest.test_case "http echo json" `Quick (silent test_http_echo_json);
    Alcotest.test_case "serial stream mode" `Quick (silent test_serial_stream_mode);
    Alcotest.test_case "serial stale faults" `Quick (silent test_serial_stale_faults);
    Alcotest.test_case "sal socket validation" `Quick (silent test_sal_socket_validation);
    Alcotest.test_case "sal lifecycle" `Quick (silent test_sal_lifecycle);
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_parser_total;
    QCheck_alcotest.to_alcotest prop_http_parser_total;
  ]

(* Additional HTTP coverage: query parsing and device routes. *)
let test_http_devices_query () =
  let server = make_server () in
  let get path = Http.Server.handle server (Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path) in
  let r = get "/devices?limit=2" in
  Alcotest.(check string) "two devices" "[\"dev0\",\"dev1\"]" r.Http.body;
  let r2 = get "/devices?limit=0" in
  Alcotest.(check string) "bad limit falls back" "[\"dev0\",\"dev1\",\"dev2\"]" r2.Http.body;
  ignore (get "/devices" : Http.response);
  (* DELETE shrinks the device table. *)
  ignore (Http.Server.handle server "DELETE /devices HTTP/1.1\r\n\r\n" : Http.response);
  let r3 = get "/devices?limit=9" in
  Alcotest.(check string) "one fewer" "[\"dev0\",\"dev1\"]" r3.Http.body

let test_json_num_formats () =
  List.iter
    (fun (text, expected) ->
      match Json.parse ~instr:(json_instr ()) text with
      | Ok (Json.Num f) ->
        Alcotest.(check (float 1e-9)) text expected f
      | Ok _ -> Alcotest.fail (text ^ ": not a number")
      | Error e -> Alcotest.fail (text ^ ": " ^ e))
    [ ("0", 0.); ("-0", 0.); ("10.5", 10.5); ("1e3", 1000.); ("2E+2", 200.);
      ("5e-1", 0.5); ("123456789", 123456789.) ]

let suite =
  suite
  @ [
      Alcotest.test_case "http devices query" `Quick (silent test_http_devices_query);
      Alcotest.test_case "json number formats" `Quick (silent test_json_num_formats);
    ]
