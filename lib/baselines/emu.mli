open Eof_os

(** The emulator harness Tardis and Gustave share.

    Both tools run the target under a QEMU-style emulator and talk to
    it through guest RAM, with no debug probe in between: the harness
    runs the VM to the agent's [executor_main] binding point, writes
    the next program into the mailbox, runs to [loop_back], and drains
    coverage out of the KCOV-style buffer ([Board.read_counted]) at
    every [buf_full] stop and after each program. A VM that faults,
    exits or stops answering is a crash event and is reset
    ([Board.reset] + [Engine.reset]); crashes are deduplicated by
    {!Eof_core.Crash.Ledger}. Coverage is sampled every
    10 iterations and once at the end.

    A tool supplies only what differs — its input model, how it names
    a dead VM, and its corpus — as a {!tool}. The harness draws no
    randomness of its own. *)

type stop =
  | Dead  (** the VM faulted or exited *)
  | Stuck
      (** the VM missed the binding point: 20 stops, or two exhausted
          100_000-site quanta *)

type death = {
  kind : Eof_core.Crash.kind;  (** a [Hang] also counts as a stall *)
  operation : string;
  message : string;
  program : string;
}
(** The tool's account of a dead VM. *)

type 'input tool = {
  next : unit -> 'input;  (** the next input, drawn from the tool's RNG *)
  program : 'input -> Eof_agent.Wire.program;  (** what the agent runs *)
  death : stop -> 'input option -> death;
      (** name a crash, given the last input delivered (if any); called
          before the VM is reset, so guest RAM still holds its state *)
  admit : 'input -> new_edges:int -> unit;
      (** an input whose run found [new_edges > 0] new edges *)
  corpus_size : unit -> int;
  final_corpus : unit -> Eof_core.Prog.t list;
}

val run :
  iterations:int -> Osbuild.t -> 'input tool ->
  Eof_core.Campaign.outcome
(** [iterations] binding-point rounds. [stalls] and [timeouts] both
    count crashes the tool named [Hang]; [reflashes] is always 0. *)
