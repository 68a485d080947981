(** Adaptive controller for the DFDeques memory threshold K.

    The paper's K is the space/locality dial: DFDeques(K) runs in
    [S1 + O(K·p·D)] space (Theorem 4.4), so under memory pressure the
    {e principled} degradation is to shrink K — workers give up their
    deques sooner, the scheduler hews closer to the serial depth-first
    order, peak space falls, and throughput pays (more steals).  When
    pressure subsides, K regrows and locality returns.

    The control law is AIMD-shaped and integer-only (deterministic):

    - input: allocation pressure, bytes per control interval — the delta
      of the pool's [alloc_bytes] counter, optionally topped up with GC
      stats by the caller;
    - a 4:1 integer EWMA smooths the input;
    - smoothed pressure above [high_watermark] → K halves (multiplicative
      decrease), clamped to [k_min];
    - smoothed pressure at or below [low_watermark] for [recover_steps]
      consecutive intervals → K doubles (cautious recovery), clamped to
      [k_max].

    The controller is pure bookkeeping: the service applies the returned
    action to the pool ({!Dfd_runtime.Pool.set_quota}) and emits the
    [Quota_adjusted] trace event. *)

type config = {
  k_init : int;  (** starting K (bytes); must lie in [[k_min, k_max]]. *)
  k_min : int;  (** floor: the tightest space bound we degrade to. *)
  k_max : int;  (** ceiling: full-locality K when memory is plentiful. *)
  high_watermark : int;  (** smoothed bytes/interval that trigger shrinking. *)
  low_watermark : int;  (** smoothed bytes/interval that count as calm. *)
  recover_steps : int;  (** consecutive calm intervals before regrowth. *)
}

val default_config : config

val validate : config -> unit
(** Raises [Invalid_argument] on non-positive bounds, [k_init] outside
    [[k_min, k_max]], [low_watermark > high_watermark], or
    [recover_steps < 1]. *)

type action =
  | Steady
  | Shrink of { from_quota : int; to_quota : int }
  | Grow of { from_quota : int; to_quota : int }

type t

val create : config -> t

val observe : t -> now:int -> pressure:int -> action
(** Feed one control interval's allocation pressure (bytes) at logical
    time [now]; returns the K adjustment to apply, if any. *)

val quota : t -> int
(** The controller's current K. *)

val trajectory : t -> (int * int) list
(** Every K change as [(step, new_K)], oldest first. *)
