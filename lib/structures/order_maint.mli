(** Order-maintenance list: a total order supporting O(1) comparison and
    (amortised) O(1) insertion of a new element immediately before/after an
    existing one.

    The ADF baseline scheduler (Narlikar–Blelloch depth-first scheduling,
    refs [34,35] of the paper) keeps every live thread in serial depth-first
    (1DF) priority order; when a thread forks, the child is inserted
    immediately {e before} the parent (the child comes earlier in the 1DF
    order).  This module provides those labels.

    Implementation: integer tags in a 62-bit space; inserting into a full
    gap triggers an even relabelling of the whole list (amortised O(1) per
    insertion at our scales, and simple enough to trust). *)

type t
(** The order structure. *)

type label
(** An element of the order. *)

val create : unit -> t * label
(** Fresh order containing a single base label. *)

val insert_after : t -> label -> label
(** A new label immediately after (greater than) the given one. *)

val insert_before : t -> label -> label
(** A new label immediately before (less than) the given one. *)

val delete : t -> label -> unit
(** Remove a label from the order.  Comparing a deleted label is a
    programming error and raises [Invalid_argument]. *)

val compare : label -> label -> int
(** Total order comparison; O(1). *)

val size : t -> int
(** Number of live labels. *)
