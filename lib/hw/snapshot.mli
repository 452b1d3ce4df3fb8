(** Copy-on-write RAM/flash snapshots with a dirty-page cost model.

    {!capture} records a page-granular baseline of a board's RAM and
    flash backing store and bumps each region's write generation;
    {!restore} copies back only pages written since the capture (or the
    previous restore), charging the board clock a flat fee plus a
    per-dirty-page cost. A restore therefore costs O(dirty pages) where
    a full reflash costs O(partition size) in link traffic.

    Only a board's latest capture is restorable: a capture resets the
    regions' dirty-page lists, so {!restore} of an earlier one raises
    [Invalid_argument]. *)

type t

val capture : ram:Memory.t -> flash:Flash.t -> clock:Clock.t -> t
(** Snapshot both regions and charge the save cost to [clock]. *)

val pages : t -> int
(** Total device pages covered (RAM + flash). *)

val restore : t -> clock:Clock.t -> int
(** Copy dirty pages back, charge [clock] proportionally, and return the
    number of pages copied. Flash contents are rewound host-side without
    erase cycles, so {!Flash.erase_count} keeps counting real wear.
    @raise Invalid_argument if a later capture of the same board
    superseded this one. *)
