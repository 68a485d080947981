(** Always-on metrics registry of read-side probes.

    Every series is a {e probe}: a named closure over state its owner
    already keeps (the pool's single-writer per-worker counter records,
    the service's supervision counters, a simulation's
    {!Dfd_machine.Metrics}, the {!Headroom} fields), evaluated only at
    snapshot time.  No hot path ever touches the registry, so an event is
    counted once, by its owner, whether telemetry is on or off.  Under
    {!disabled} registration is a no-op and {!snapshot} is empty.

    Registration is an upsert: probing the same name again replaces the
    closure, so components that respawn — pool incarnations under the
    supervisor — re-point their series at the fresh state.  A [`Counter]
    probe's replaced closure is read one last time and carried into a
    base that later samples add to, so the series stays monotone across
    incarnations.  Re-using a name with a different kind raises
    [Invalid_argument].

    Metric names follow the OpenMetrics grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*], optionally followed by a literal label set
    [{key="value",...}] which {!Openmetrics} re-attaches to each rendered
    sample line.  Samples marked [~stable:true] depend only on
    seed-deterministic state (the service's logical clock world); the soak
    report embeds [snapshot ~stable_only:true] so same-seed runs stay
    byte-identical even while native-pool counters race. *)

type t

val create : unit -> t
(** An enabled registry. *)

val disabled : t
(** The shared off registry: registration is a no-op and {!snapshot} is
    empty. *)

val enabled : t -> bool

(** Snapshot value of a histogram-shaped sample: total count, total sum
    and per-bucket counts as [(upper_bound, count)] with increasing
    bounds, non-cumulative (the OpenMetrics renderer accumulates). *)
type hist = { h_count : int; h_sum : float; h_buckets : (float * int) list }

type value =
  | Counter_v of int
  | Gauge_v of int  (** current value; the peak is a separate sample. *)
  | Float_v of float
  | Hist_v of hist

type sample = { name : string; help : string; stable : bool; value : value }

val probe :
  t ->
  ?help:string ->
  ?stable:bool ->
  kind:[ `Counter | `Gauge ] ->
  string ->
  (unit -> int) ->
  unit
(** Register (or replace) a read-at-snapshot closure rendered as a counter
    or gauge sample.  A replaced [`Counter] closure's last value carries
    into the series (see above). *)

val probe_float : t -> ?help:string -> ?stable:bool -> string -> (unit -> float) -> unit

val probe_histogram : t -> ?help:string -> ?stable:bool -> string -> (unit -> hist) -> unit

val hist_of_stats : Dfd_structures.Stats.Histogram.t -> hist
(** Bridge a simulator histogram into the snapshot shape (bucket bounds
    coincide by construction). *)

val labeled : string -> (string * string) list -> string
(** [labeled "fam" [("tenant", "gold")]] -> ["fam{tenant=\"gold\"}"]:
    build a labelled metric name, escaping backslash, quote and newline
    in label values.  The result is validated with {!split_labeled}, so
    a name this returns always registers and renders cleanly.  An empty
    label list returns the bare family name. *)

val split_labeled : string -> string * string option
(** ["fam{k=\"v\"}"] -> [("fam", Some "k=\"v\"")]; plain names map to
    [(name, None)].  Raises [Invalid_argument] on names the renderer could
    not handle — also used as the registration-time validator. *)

val snapshot : ?stable_only:bool -> t -> sample list
(** All current samples sorted by name.  Probe closures run under the
    registry lock, so they must not themselves touch the registry.  A probe that raises
    contributes no sample (crash forensics must not crash). *)

(** Renderers over sample lists — shared by the service snapshot and the
    soak report, which previously each hand-rolled their own
    flattening. *)
module Snapshot : sig
  val to_json : sample list -> Dfd_trace.Json.t
  (** Lossless: [{"metrics":[{"name","type","value"...}]}]; histograms
      carry count/sum/buckets. *)

  val to_flat_json : sample list -> Dfd_trace.Json.t
  (** A flat object [{name: number, ...}] of the scalar samples
      (histograms are skipped) — the legacy counters-object shape. *)
end
