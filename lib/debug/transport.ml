(* The link's cost model: ~1 MBaud SWD, plus the probe/USB turnaround
   every exchange pays whatever its size. *)
let byte_latency_us = 1.0
let exchange_overhead_us = 40.0

(* A record of one float field holds it unboxed, so charging the clock
   allocates nothing. *)
type clock = { mutable us : float }

type t = {
  mutable injector : Inject.t option;
  elapsed : clock;
  mutable exchanges : int;
  obs : Eof_obs.Obs.t;
  c_exchanges : Eof_obs.Obs.Counter.t;
  c_timeouts : Eof_obs.Obs.Counter.t;
  c_bytes_tx : Eof_obs.Obs.Counter.t;
  c_bytes_rx : Eof_obs.Obs.Counter.t;
  c_faults : Eof_obs.Obs.Counter.t;
}

let create ?obs () =
  let obs = match obs with Some o -> o | None -> Eof_obs.Obs.create () in
  { injector = None;
    elapsed = { us = 0. }; exchanges = 0;
    obs;
    c_exchanges = Eof_obs.Obs.Counter.make obs "transport.exchanges";
    c_timeouts = Eof_obs.Obs.Counter.make obs "transport.timeouts";
    c_bytes_tx = Eof_obs.Obs.Counter.make obs "transport.bytes_tx";
    c_bytes_rx = Eof_obs.Obs.Counter.make obs "transport.bytes_rx";
    c_faults = Eof_obs.Obs.Counter.make obs "transport.faults" }

let set_injector t injector = t.injector <- injector

let note_reset t = match t.injector with Some inj -> Inject.note_reset inj | None -> ()

let charge_us t us = t.elapsed.us <- t.elapsed.us +. us

(* A timeout costs the host its full wait budget; generous so that
   timeouts are visibly expensive, as on real probes. *)
let timeout_cost_us = 500_000.

let observe_fault t fault =
  Eof_obs.Obs.Counter.incr t.c_faults;
  if Eof_obs.Obs.active t.obs then
    Eof_obs.Obs.emit t.obs
      (Eof_obs.Obs.Event.Link_fault
         { fault = Inject.fault_name fault; exchange = t.exchanges })

let time_out t ~tx =
  Eof_obs.Obs.Counter.incr t.c_timeouts;
  charge_us t timeout_cost_us;
  if Eof_obs.Obs.active t.obs then
    Eof_obs.Obs.emit t.obs
      (Eof_obs.Obs.Event.Exchange { tx; rx = 0; timeout = true });
  Error Eof_util.Eof_error.timeout

let deliver t ~tx response =
  let rx = String.length response in
  Eof_obs.Obs.Counter.add t.c_bytes_rx rx;
  t.elapsed.us <-
    t.elapsed.us +. exchange_overhead_us +. (float_of_int (tx + rx) *. byte_latency_us);
  if Eof_obs.Obs.active t.obs then
    Eof_obs.Obs.emit t.obs
      (Eof_obs.Obs.Event.Exchange { tx; rx; timeout = false });
  Ok response

let exchange t ~server request =
  t.exchanges <- t.exchanges + 1;
  Eof_obs.Obs.Counter.incr t.c_exchanges;
  let tx = String.length request in
  Eof_obs.Obs.Counter.add t.c_bytes_tx tx;
  match t.injector with
  | None -> deliver t ~tx (server request)
  | Some inj ->
    (match Inject.decide inj with
     | Inject.Pass -> deliver t ~tx (server request)
     | Inject.Fault Inject.Drop ->
       (* The request never reached the probe: the server is NOT
          called, which is what makes a drop always safe to retry. *)
       observe_fault t Inject.Drop;
       time_out t ~tx
     | Inject.Fault Inject.Timeout ->
       (* The server DID execute; only the response was lost. *)
       observe_fault t Inject.Timeout;
       ignore (server request : string);
       time_out t ~tx
     | Inject.Fault ((Inject.Truncate | Inject.Nak_storm | Inject.Garbage) as f) ->
       observe_fault t f;
       deliver t ~tx (Inject.mangle inj f (server request)))

let elapsed_us t = t.elapsed.us

let exchanges t = t.exchanges
