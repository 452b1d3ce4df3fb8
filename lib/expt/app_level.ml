open Eof_os
module Campaign = Eof_core.Campaign

type app_tool = App_EOF | App_GDBFuzz | App_SHIFT

let tool_name = function
  | App_EOF -> "EOF"
  | App_GDBFuzz -> "GDBFuzz"
  | App_SHIFT -> "SHIFT"

type app_cell = { tool : app_tool; component : string; outcomes : Campaign.outcome list }

type component_def = {
  name : string;
  instrument : string list;  (** module blocks to record coverage in *)
  entry_api : string;  (** baseline single entry point *)
  eof_apis : string list;  (** the app surface EOF's spec is limited to *)
}

let components =
  [
    {
      name = "HTTP Server";
      instrument = [ Freertos.http_module ];
      entry_api = "http_request";
      eof_apis = [ "http_request"; "syz_http_get"; "syz_http_post_json" ];
    };
    {
      name = "JSON";
      instrument = [ Freertos.json_module ];
      entry_api = "json_parse";
      eof_apis = [ "json_parse"; "syz_http_post_json" ];
    };
  ]

let make_build c =
  Osbuild.make
    ~instrument:(Osbuild.Instrument_only c.instrument)
    ~board_profile:Eof_hw.Profiles.esp32_devkitc Freertos.spec

let run_one tool c ~seed ~iterations =
  let build = make_build c in
  match tool with
  | App_EOF ->
    Campaign.run
      {
        Campaign.default_config with
        seed;
        iterations;
        api_filter = Some c.eof_apis;
        max_prog_len = 6;
      }
      build
  | App_GDBFuzz ->
    Eof_baselines.Gdbfuzz.run ~seed ~iterations ~entry_api:c.entry_api
      ~sample_modules:c.instrument build
  | App_SHIFT -> Eof_baselines.Shift.run ~seed ~iterations ~entry_api:c.entry_api build

let cache : (int, app_cell list) Hashtbl.t = Hashtbl.create 4

let matrix ?iterations () =
  let iterations = match iterations with Some i -> i | None -> Runner.scaled 2000 in
  match Hashtbl.find_opt cache iterations with
  | Some cells -> cells
  | None ->
    let cells =
      List.concat_map
        (fun c ->
          List.map
            (fun tool ->
              let outcomes =
                List.filter_map
                  (fun seed ->
                    match run_one tool c ~seed ~iterations with
                    | Ok o -> Some o
                    | Error _ -> None)
                  (Runner.seeds Runner.repetitions)
              in
              { tool; component = c.name; outcomes })
            [ App_EOF; App_GDBFuzz; App_SHIFT ])
        components
    in
    Hashtbl.replace cache iterations cells;
    cells

let outcomes_of cells ~tool ~component =
  match List.find_opt (fun c -> c.tool = tool && c.component = component) cells with
  | Some c -> c.outcomes
  | None -> []

let mean_coverage cells ~tool ~component =
  match outcomes_of cells ~tool ~component with
  | [] -> 0.
  | os -> Eof_util.Stats.mean (List.map (fun o -> float_of_int o.Campaign.coverage) os)
