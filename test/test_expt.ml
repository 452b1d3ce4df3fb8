module Targets = Eof_expt.Targets
module Runner = Eof_expt.Runner
module Fig_render = Eof_expt.Fig_render

let test_catalog_shape () =
  Alcotest.(check int) "19 bugs" 19 (List.length Targets.catalog);
  Alcotest.(check int) "5 confirmed" 5
    (List.length (List.filter (fun (b : Targets.bug) -> b.Targets.confirmed) Targets.catalog));
  (* Distribution per the paper: Zephyr 4, RT-Thread 8, FreeRTOS 1, NuttX 6. *)
  let count os =
    List.length (List.filter (fun (b : Targets.bug) -> b.Targets.os = os) Targets.catalog)
  in
  Alcotest.(check int) "zephyr" 4 (count "Zephyr");
  Alcotest.(check int) "rtthread" 8 (count "RT-Thread");
  Alcotest.(check int) "freertos" 1 (count "FreeRTOS");
  Alcotest.(check int) "nuttx" 6 (count "NuttX");
  (* Every bug's OS is a real target and ids are 1..19. *)
  List.iter
    (fun (b : Targets.bug) ->
      Alcotest.(check bool) "os exists" true (Targets.find b.Targets.os <> None))
    Targets.catalog;
  Alcotest.(check (list int)) "ids" (List.init 19 (fun i -> i + 1))
    (List.sort compare (List.map (fun (b : Targets.bug) -> b.Targets.id) Targets.catalog))

let test_match_bug () =
  let crash op os =
    {
      Eof_core.Crash.os;
      kind = Eof_core.Crash.Kernel_panic;
      operation = op;
      scope = "";
      message = "";
      backtrace = [];
      detected_by = Eof_core.Crash.Exception_monitor;
      program = "";
      iteration = 0;
    }
  in
  (match Targets.match_bug (crash "rt_smem_setname" "RT-Thread") with
   | Some b -> Alcotest.(check int) "bug 11" 11 b.Targets.id
   | None -> Alcotest.fail "no match");
  (* Operation names are OS-scoped. *)
  (match Targets.match_bug (crash "rt_smem_setname" "Zephyr") with
   | None -> ()
   | Some _ -> Alcotest.fail "cross-OS match");
  Alcotest.(check (list int)) "found_ids dedups" [ 11 ]
    (Targets.found_ids [ crash "rt_smem_setname" "RT-Thread"; crash "rt_smem_setname" "RT-Thread" ])

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_table1_static () =
  let text = Eof_expt.Table1.render () in
  Alcotest.(check bool) "mentions FreeRTOS" true (contains ~needle:"FreeRTOS" text);
  Alcotest.(check bool) "mentions MSP430" true (contains ~needle:"MSP430" text);
  let target_rows =
    List.filter
      (fun line ->
        List.exists
          (fun t -> contains ~needle:t line)
          [ "FreeRTOS"; "RTThread"; "Nuttx"; "Zephyr"; "Applications" ])
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "12 target rows" 12 (List.length target_rows)

let test_runner_seeds_and_hours () =
  Alcotest.(check int) "n seeds" 5 (List.length (Runner.seeds 5));
  Alcotest.(check bool) "distinct" true
    (List.sort_uniq compare (Runner.seeds 5) = List.sort compare (Runner.seeds 5));
  let series =
    [ { Eof_core.Campaign.iteration = 0; virtual_s = 0.; coverage = 0 };
      { Eof_core.Campaign.iteration = 500; virtual_s = 1.; coverage = 10 };
      { Eof_core.Campaign.iteration = 1000; virtual_s = 2.; coverage = 20 } ]
  in
  let hours = Runner.hours_of_series ~iterations:1000 series in
  (match hours with
   | [ (h0, 0); (h1, 10); (h2, 20) ] ->
     Alcotest.(check (float 1e-9)) "start" 0. h0;
     Alcotest.(check (float 1e-9)) "mid" 12. h1;
     Alcotest.(check (float 1e-9)) "end" 24. h2
   | _ -> Alcotest.fail "bad mapping")

let test_fig_render_value_at () =
  let series = [ (0., 0); (6., 5); (12., 9) ] in
  Alcotest.(check int) "before first" 0 (Fig_render.value_at series 0.);
  Alcotest.(check int) "between" 5 (Fig_render.value_at series 7.);
  Alcotest.(check int) "after last" 9 (Fig_render.value_at series 24.)

let test_fig_render_output () =
  let runs = [ [ (0., 0); (12., 50); (24., 100) ]; [ (0., 0); (12., 40); (24., 90) ] ] in
  let text =
    Fig_render.render ~title:"(x) Demo"
      [ { Fig_render.label = "EOF"; glyph = 'E'; runs } ]
  in
  Alcotest.(check bool) "title" true (contains ~needle:"(x) Demo" text);
  Alcotest.(check bool) "band" true (contains ~needle:"[90-100]" text);
  Alcotest.(check bool) "legend" true (contains ~needle:"E=EOF" text)

let test_overhead_memory_static () =
  let text = Eof_expt.Overhead.render_memory () in
  Alcotest.(check bool) "has average" true (contains ~needle:"Average memory overhead" text);
  (* Every hardware OS appears with a positive increase. *)
  List.iter
    (fun os -> Alcotest.(check bool) os true (contains ~needle:os text))
    [ "NuttX"; "RT-Thread"; "Zephyr"; "FreeRTOS" ]

let suite =
  [
    Alcotest.test_case "bug catalog shape" `Quick test_catalog_shape;
    Alcotest.test_case "match_bug" `Quick test_match_bug;
    Alcotest.test_case "table1 static" `Quick test_table1_static;
    Alcotest.test_case "runner seeds/hours" `Quick test_runner_seeds_and_hours;
    Alcotest.test_case "fig value_at" `Quick test_fig_render_value_at;
    Alcotest.test_case "fig render output" `Quick test_fig_render_output;
    Alcotest.test_case "overhead memory table" `Quick test_overhead_memory_static;
  ]
