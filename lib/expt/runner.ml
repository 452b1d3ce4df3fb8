module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash

let scale () =
  match Sys.getenv_opt "EOF_BENCH_SCALE" with
  | Some s -> (match float_of_string_opt s with Some f when f > 0. -> f | _ -> 1.0)
  | None -> 1.0

let scaled n = max 50 (int_of_float (float_of_int n *. scale ()))

let repetitions = 5

let seeds n = List.init n (fun i -> Int64.of_int ((i * 7919) + 101))

type tool = EOF | EOF_nf | Tardis | Gustave

let tool_name = function
  | EOF -> "EOF"
  | EOF_nf -> "EOF-nf"
  | Tardis -> "Tardis"
  | Gustave -> "Gustave"

let run_tool tool ~seed ~iterations (target : Targets.hw_target) =
  match tool with
  | EOF ->
    let build = Targets.build_hw target in
    Campaign.run { Campaign.default_config with seed; iterations } build
  | EOF_nf ->
    let build = Targets.build_hw target in
    Campaign.run
      { Campaign.default_config with seed; iterations; feedback = false }
      build
  | Tardis ->
    let build = Eof_baselines.Tardis.build_for target.Targets.spec in
    Eof_baselines.Tardis.run ~seed ~iterations build
  | Gustave ->
    let build = Eof_baselines.Gustave.build_for target.Targets.spec in
    Eof_baselines.Gustave.run ~seed ~iterations build

type cell = { tool : tool; os : string; outcomes : Campaign.outcome list }

let matrix_cache : (int, cell list) Hashtbl.t = Hashtbl.create 4

let full_system_matrix ?iterations () =
  let iterations = match iterations with Some i -> i | None -> scaled 3000 in
  match Hashtbl.find_opt matrix_cache iterations with
  | Some cells -> cells
  | None ->
    let hardware_oses = [ "NuttX"; "RT-Thread"; "Zephyr"; "FreeRTOS" ] in
    let cells = ref [] in
    let run_cell tool os =
      match Targets.find os with
      | None -> ()
      | Some target ->
        let outcomes =
          List.filter_map
            (fun seed ->
              match run_tool tool ~seed ~iterations target with
              | Ok o -> Some o
              | Error _ -> None)
            (seeds repetitions)
        in
        cells := { tool; os; outcomes } :: !cells
    in
    List.iter
      (fun os ->
        run_cell EOF os;
        run_cell EOF_nf os;
        run_cell Tardis os)
      hardware_oses;
    run_cell EOF "PoKOS";
    run_cell EOF_nf "PoKOS";
    run_cell Gustave "PoKOS";
    let cells = List.rev !cells in
    Hashtbl.replace matrix_cache iterations cells;
    cells

let mean_coverage cell =
  match cell.outcomes with
  | [] -> 0.
  | os -> Eof_util.Stats.mean (List.map (fun o -> float_of_int o.Campaign.coverage) os)

let find_cell cells ~tool ~os = List.find_opt (fun c -> c.tool = tool && c.os = os) cells

let coverage_of cells ~tool ~os = Option.map mean_coverage (find_cell cells ~tool ~os)

let outcomes_of cells ~tool ~os =
  match find_cell cells ~tool ~os with Some c -> c.outcomes | None -> []

let union_crashes outcomes =
  let ledger = Crash.Ledger.create () in
  List.iter (fun o -> Crash.Ledger.add_all ledger o.Campaign.crashes) outcomes;
  Crash.Ledger.to_list ledger

let hours_of_series ~iterations samples =
  List.map
    (fun (s : Campaign.sample) ->
      (float_of_int s.Campaign.iteration /. float_of_int iterations *. 24., s.Campaign.coverage))
    samples
