(** The application-level experiment substrate (Table 4 / Figure 8):
    FreeRTOS on the ESP32 devkit with instrumentation strictly confined
    to the HTTP-server / JSON component, fuzzed by EOF (API-aware, but
    restricted to the app surface), GDBFuzz and SHIFT. *)

type app_tool = App_EOF | App_GDBFuzz | App_SHIFT

val tool_name : app_tool -> string

type app_cell = {
  tool : app_tool;
  component : string;  (** "HTTP Server" or "JSON" *)
  outcomes : Eof_core.Campaign.outcome list;
}

val matrix : ?iterations:int -> unit -> app_cell list
(** {!Runner.repetitions} campaigns per cell. Computed once per process
    and memoized. *)

val outcomes_of : app_cell list -> tool:app_tool -> component:string ->
  Eof_core.Campaign.outcome list

val mean_coverage : app_cell list -> tool:app_tool -> component:string -> float
