(** Live Theorem-4.4 space-headroom profiler.

    The paper's headline space claim — DFDeques(K) keeps live space within
    [S1 + O(min(K, S1) * p * D)] — is checked offline by the test oracles;
    this module turns it into gauges an operator can watch while a run
    is in flight:

    - [dfd_space_live_bytes{policy=...}] — current live heap bytes;
    - [dfd_space_peak_bytes{...}] — its high watermark;
    - [dfd_space_budget_bytes{...}] — [S1 + c * min(K, S1) * p * D], the
      bound instantiated exactly as [Dfd_check.Oracle.thm44] computes it
      (same constant [c], default 8), with [K] and [p] fixed at
      {!create};
    - [dfd_space_headroom_ratio{...}] — [(budget - peak) / budget];
    - [dfd_space_premature_nodes{...}] — heavy premature nodes
      (Lemma 4.2), the term the bound's [p * D] factor is made of (the
      engine exports their fork depths as [dfd_engine_premature_depth]).

    The values are plain fields of {!t}, owned by one writer (the engine
    or the service step loop); the gauges are read-side probes over them,
    so the accessors below work whether or not [registry] is enabled.

    [s1] and [depth] come from [Analysis.analyze] when the program is
    known (the simulator path, where the acceptance check against
    [Oracle.thm44] is exact) and from configuration estimates on the
    service path, where the true dag is unknown until executed. *)

val default_c : int
(** 8: the constant hiding in the bound's [O(.)], shared by the live
    gauge and [Dfd_check.Oracle.thm44]. *)

val thm44_bound : c:int -> s1:int -> k:int -> p:int -> depth:int -> int
(** [S1 + c * min(K, S1) * p * D]: Theorem 4.4's space bound with the
    constant [c] made explicit — the one place the formula is written. *)

type t

val create :
  registry:Registry.t ->
  policy:string ->
  ?c:int ->
  ?s1:int ->
  ?depth:int ->
  p:int ->
  k:int ->
  unit ->
  t
(** Registers the gauge family labeled [policy="..."] into [registry] as
    probes (upsert: a respawned owner re-binds the same series).  [c] defaults
    to {!default_c}; [s1] and [depth] default to 0, which degrades the
    budget to the [S1] term alone. *)

val budget : t -> int
(** {!thm44_bound} at the [k] and [p] fixed at {!create}. *)

val observe : t -> live_bytes:int -> unit
(** Update the live gauge (and through it the peak watermark). *)

val live : t -> int

val peak : t -> int

val headroom_ratio : t -> float
(** [(budget - peak) / budget]; 1.0 while nothing has been observed, 0.0
    when the budget is degenerate (0) and anything was observed. *)

val set_premature : t -> int -> unit
(** Absolute premature count (owners already aggregate it, like the
    engine's {!Dfd_machine.Metrics}). *)

val premature : t -> int
