module Campaign = Eof_core.Campaign
module Farm = Eof_core.Farm
module Stats = Eof_util.Stats

type point = {
  boards : int;
  payloads : int;
  coverage : int;
  virtual_s : float;
  wall_s : float;
  throughput : float;
  speedup : float;
  time_to_cov : float option;
  crashes : int;
}

let target_of : Targets.hw_target option Lazy.t = lazy (Targets.find "Zephyr")

(* First farm-clock instant at which the global coverage map held at
   least [target] edges; sync samples are emitted in farm-clock order. *)
let time_to_coverage ~target (o : Farm.outcome) =
  List.find_map
    (fun (s : Farm.sync_sample) ->
      if s.Farm.coverage >= target then Some s.Farm.virtual_s else None)
    o.Farm.sync_series

let run ?(board_counts = [ 1; 2; 4; 8 ]) ?iterations
    ?(sync_every = 25) ?(seed = 11L) () =
  let iterations =
    match iterations with Some i -> i | None -> Runner.scaled 1200
  in
  match Lazy.force target_of with
  | None -> []
  | Some target ->
    let outcomes =
      List.filter_map
        (fun boards ->
          let config =
            {
              Farm.boards;
              sync_every;
              base = { Campaign.default_config with seed; iterations };
            }
          in
          match Farm.run config (fun _board -> Targets.build_hw target) with
          | Ok o -> Some (boards, o)
          | Error _ -> None)
        board_counts
    in
    let base =
      List.find_map (fun (b, o) -> if b = 1 then Some o else None) outcomes
    in
    let base_throughput, cov_target =
      match base with
      | Some o when o.Farm.virtual_s > 0. ->
        ( float_of_int o.Farm.executed_programs /. o.Farm.virtual_s,
          max 1 (o.Farm.coverage * 6 / 10) )
      | _ -> (0., 1)
    in
    List.map
      (fun (boards, (o : Farm.outcome)) ->
        let throughput =
          if o.Farm.virtual_s > 0. then
            float_of_int o.Farm.executed_programs /. o.Farm.virtual_s
          else 0.
        in
        {
          boards;
          payloads = o.Farm.executed_programs;
          coverage = o.Farm.coverage;
          virtual_s = o.Farm.virtual_s;
          wall_s = o.Farm.wall_s;
          throughput;
          speedup = (if base_throughput > 0. then throughput /. base_throughput else 0.);
          time_to_cov = time_to_coverage ~target:cov_target o;
          crashes = List.length o.Farm.crashes;
        })
      outcomes

let render points =
  let body =
    List.map
      (fun p ->
        [
          string_of_int p.boards;
          string_of_int p.payloads;
          Stats.fmt1 p.virtual_s;
          Stats.fmt1 p.throughput;
          Printf.sprintf "%.2fx" p.speedup;
          (match p.time_to_cov with
          | Some t -> Stats.fmt1 t
          | None -> "-");
          string_of_int p.coverage;
          string_of_int p.crashes;
        ])
      points
  in
  Eof_util.Text_table.render
    ~align:
      Eof_util.Text_table.[ Right; Right; Right; Right; Right; Right; Right; Right ]
    ~header:
      [
        "Boards";
        "Payloads";
        "Farm clock (s)";
        "Payloads/s";
        "Speedup";
        "Time-to-60%cov (s)";
        "Coverage";
        "Crashes";
      ]
    body
