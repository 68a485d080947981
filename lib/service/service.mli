(** A multi-tenant, supervised front door over {!Dfd_runtime.Pool}.

    [Pool.run] is a one-shot, fail-open entry point: an unhandled worker
    wedge or a saturated queue has no recovery path, and a single greedy
    caller starves every other one.
    This module owns both problems:

    - {b Non-blocking admission} — {!submit} never blocks and never
      runs the job inline: it returns its admission at once, the job's
      ledger id or the reason it was shed.  The caller learns the
      outcome from its [on_done] callback, which fires exactly once:
      synchronously on a shed, else from the {!step} that settles the
      job (attempts run to completion inside the driver's step).
    - {b Weighted-fair isolation} ({!Tenant}, {!Fair_queue}) — each
      tenant owns a bounded lane dispatched by deficit round-robin.  The
      lane bound is the one admission defence: a submission that finds
      its lane full is shed ([Queue_full]).  A bully tenant can exhaust
      only its own lane — the admission-level analogue of the paper's
      per-deque isolation.
    - {b Deadlines and retries} — the driver enforces a job's deadline,
      counted from each attempt's dispatch: while it waits for the
      attempt it watches the wall clock, and past the deadline it
      cancels the run ({!Dfd_runtime.Pool.cancel}), so the attempt fails
      "deadline exceeded".  The pool itself keeps no clock.  A failed or
      timed-out attempt uses up one of
      the job's [max_attempts] and, while any are left, goes straight to
      the back of its own lane, with no backoff delay.  {!is_terminal}
      failures are not retried.
    - {b Supervision} — jobs execute on a dedicated executor domain; the
      driver watches {!Dfd_runtime.Pool.heartbeat} while an attempt is in
      flight.  When the pool stalls for [wedge_grace] seconds it is
      declared wedged: the pool is killed, a fresh pool and executor are
      spawned, and the in-flight job is requeued {e exactly once} at the
      front — the ledger guarantees zero lost jobs and zero duplicated
      completion acknowledgements (a late result from a retired epoch is
      structurally ignored).  This is the service's one recovery path;
      the pool itself keeps no failure-recovery state, and every pool
      runs at the fixed width [domains + 1] and at the one memory
      threshold K of the policy the service was created with.

    The service is {e step-driven} from one driver thread: {!step}
    advances a logical clock by one and dispatches at most one queued
    attempt (in DRR order) to completion.  All scheduling decisions (DRR
    order, retry positions, rejections, latencies in steps) are
    functions of the submission order and the outcome classes, never of
    wall-clock time or of a random draw — which is what makes `repro
    soak` reports byte-identical per seed.  Only the {e timing} inside
    the pool is nondeterministic; outcome classes are not. *)

type reject_reason =
  | Queue_full  (** the tenant's own lane (queued + in flight) is at its bound. *)

val reject_reason_name : reject_reason -> string
(** "queue_full". *)

type outcome =
  | Completed
  | Failed of string  (** the last attempt's error: budget exhausted, or {!is_terminal}. *)
  | Rejected of reject_reason  (** shed at admission; assigned synchronously by {!submit}. *)

type config = {
  seed : int;
      (** read by nothing: the service draws no random numbers.  It stays
          in the record only because the benchmark's service workload
          sets it; the next change to the benchmark drops it. *)
  tenants : Tenant.t list;
      (** the admission lanes; must be non-empty with unique names.
          Single-tenant services use [[Tenant.default]]. *)
  max_attempts : int;
      (** attempts per job, the first included (>= 1).  A wedge requeue
          uses one up too. *)
  default_deadline : float option;
      (** per-attempt deadline, seconds from dispatch, for jobs submitted
          without [?deadline]. *)
  wedge_grace : float;
      (** seconds without pool heartbeat progress (while an attempt is in
          flight) before the pool is declared wedged and respawned.  Must
          exceed the longest fork-free stretch of any legitimate job. *)
  domains : int;  (** extra worker domains per pool incarnation. *)
  max_respawns : int;  (** hard cap on pool respawns before {!Supervisor_giveup}. *)
  on_pool_retired : (in_flight:int option -> unit) option;
      (** called after a wedged pool is killed, with the requeued job's
          id; test harnesses use it to release their wedge tasks so the
          abandoned domain can exit and be reaped. *)
}

val default_config : config
(** seed 0, the single [Tenant.default] lane, 4 attempts, no default
    deadline, grace 5 s, 2 extra domains, 8 respawns. *)

exception Supervisor_giveup of string
(** More than [max_respawns] pool respawns: the supervisor refuses to
    keep restarting a pool that keeps wedging. *)

val is_terminal : exn -> bool
(** Is this exception class {e terminal} — deterministic, so a retry is
    guaranteed to fail identically and would only burn the budget?
    The classes: [Invalid_argument], [Assert_failure], [Match_failure],
    [Undefined_recursive_module] and {!Supervisor_giveup}.  A job whose
    attempt raises one is acknowledged [Failed] on that attempt, with no
    retry. *)

type t

val create :
  ?registry:Dfd_obs.Registry.t ->
  ?flight_dir:string ->
  ?headroom_s1:int ->
  ?headroom_depth:int ->
  ?config:config ->
  Dfd_runtime.Pool.policy ->
  t
(** Start the service: spawns the first pool incarnation and its
    executor domain.  Every incarnation runs under [policy], so a
    [Dfdeques] service runs every attempt at the policy's K.

    [registry] (default: a fresh private {!Dfd_obs.Registry.t}) receives
    the service's stable [dfd_service_*] probes (including per-tenant
    lanes labelled [tenant="..."]), the pool's unstable [dfd_pool_*]
    probes (counter series carried across respawns), and the
    [policy="service"] {!Dfd_obs.Headroom} gauge family.  Every series
    is a read-side probe, so telemetry costs nothing until scraped;
    {!Dfd_obs.Registry.disabled} only drops the registrations.

    [flight_dir], when set, enables crash forensics: on a wedge, an
    attempt timeout, or a supervisor give-up, the current incarnation's
    flight-recorder ring is dumped to
    [flight_dir/flight_<reason>_step<clock>.json] (best-effort; dump
    failures never mask the fault being reported).

    [headroom_s1] / [headroom_depth] (default 0) are configuration
    estimates of serial space and dag depth for the Theorem-4.4 budget
    gauge — the service cannot derive them because the dag is unknown
    until executed; the simulator path computes them exactly.  The
    budget's K is the policy's; a {!Dfd_runtime.Pool.Work_stealing}
    service has none and uses K = 0, so its budget is [headroom_s1]
    alone.  [repro metrics] maps an infinite K to K = S1 instead; the
    service keeps the tighter ceiling because one attempt's peak is one
    job's allocation, which S1 already bounds (DESIGN.md §12). *)

val submit :
  t ->
  ?tenant:string ->
  ?class_:string ->
  ?deadline:float ->
  ?on_done:(outcome -> unit) ->
  (unit -> unit) ->
  (int, reject_reason) result
(** Offer a job to [tenant]'s lane (default ["default"]; unknown tenants
    raise [Invalid_argument]).  Never blocks, never runs the job inline:
    [Ok id] — admitted under ledger id [id]; [Error Queue_full] — shed,
    because the lane's load (queued and in flight) was at its bound.
    A shed is recorded in the ledger too.  [class_] labels the job in
    the ledger.  [deadline] overrides the config's per-attempt timeout.
    [on_done] fires exactly once with the job's terminal outcome: inside
    [submit], before it returns, on a shed; else inside the {!step} that
    settles the job.  It runs on the driver thread, so it must be quick
    and must not re-enter the service.  The work closure runs inside
    [Pool.run] on the executor domain, so it may use [Pool.fork_join],
    [Pool.alloc_hint], etc. *)

val step : t -> unit
(** Advance the logical clock by one: dispatch and fully execute at most
    one queued attempt (in DRR order, blocking, with wedge
    supervision). *)

val drive : ?max_steps:int -> t -> unit
(** {!step} until the service is idle (no queued jobs) or [max_steps]
    (default 10_000) steps have elapsed. *)

val now : t -> int
(** The logical clock (number of {!step}s so far). *)

val idle : t -> bool

type counters = {
  accepted : int;
  coalesced : int;  (** always 0; see [rejected_overloaded]. *)
  rejected_queue_full : int;
  rejected_breaker_open : int;  (** always 0; see [rejected_overloaded]. *)
  rejected_memory_pressure : int;  (** always 0; see [rejected_overloaded]. *)
  rejected_overloaded : int;
      (** always 0.  This field, [coalesced], [rejected_breaker_open] and
          [rejected_memory_pressure] counted overload defences the service
          no longer has (coalescing, circuit breakers, memory-pressure
          shedding, the backpressure ladder).  They stay in the record only
          because the benchmark's service workload reads them in its
          audit; the next change to the benchmark drops them. *)
  completions : int;
  failures : int;
  retries : int;  (** failed attempts sent back to their lane, wedge requeues included. *)
  timeouts : int;  (** attempts that hit their deadline. *)
  wedges : int;  (** pool incarnations declared wedged. *)
  respawns : int;  (** fresh pool incarnations after a wedge. *)
  duplicate_acks : int;  (** terminal acks refused because one landed already; 0 in a correct run. *)
}

val counters : t -> counters

(** Per-tenant isolation report (deterministic per seed). *)
type tenant_stats = {
  ts_name : string;
  ts_weight : int;
  ts_bound : int;
  ts_accepted : int;
  ts_completions : int;
  ts_failures : int;
  ts_rejected_queue_full : int;
  ts_first_shed : int option;  (** first step at which a submission of this tenant was rejected. *)
  ts_peak_depth : int;  (** high watermark of the tenant's queued jobs. *)
  ts_latency : Dfd_structures.Stats.Histogram.t;
      (** completion latency in steps (submit → terminal ack) of completed
          jobs. *)
}

val tenant_stats : t -> tenant_stats list
(** One entry per tenant, in registration (= DRR) order. *)

type entry = {
  job : int;
  tenant : string;
  class_ : string;
  attempts : int;  (** attempts consumed (0 for rejected jobs). *)
  requeues : int;  (** wedge requeues (each exactly one per wedge). *)
  outcome : outcome option;  (** [None] only while still queued. *)
}

val ledger : t -> entry list
(** Every submission ever offered, in id order. *)

val verify_ledger : t -> (unit, string) result
(** The exactly-once audit, meaningful once {!idle}: every entry carries
    exactly one terminal outcome (no lost jobs), no duplicate
    acknowledgements were attempted, and the counters are consistent
    with the entries (accepted + rejected = submissions), globally and
    per tenant: each lane's accepted, completed, failed and rejected
    counts match its own ledger entries.
    [Error msg] pinpoints the first violation. *)

val registry : t -> Dfd_obs.Registry.t
(** The telemetry registry this service publishes into. *)

val headroom : t -> Dfd_obs.Headroom.t
(** The [policy="service"] Theorem-4.4 gauge family.  The live gauge is
    fed the per-attempt allocation delta (a deterministic live-space
    proxy), so [peak <= budget] is a checkable, seeded acceptance
    condition. *)

val counter_samples : t -> Dfd_obs.Registry.sample list
(** The supervision counters as registry samples (short names:
    ["accepted"], ["rejected_queue_full"], ["completions"], …) — the key
    set the soak report's counters object uses; render with
    {!Dfd_obs.Registry.Snapshot.to_flat_json}. *)

val metrics_snapshot : ?stable_only:bool -> t -> Dfd_obs.Registry.sample list
(** Snapshot the registry (see {!Dfd_obs.Registry.snapshot}).  With
    [~stable_only:true] the result is a pure function of (seed,
    submission order) and may be embedded in byte-deterministic
    reports. *)

val metrics_text : t -> string
(** The full registry rendered as OpenMetrics v1 text. *)

val shutdown : ?reap:bool -> t -> unit
(** Stop the executor and the current pool.  [reap] (default [false])
    additionally joins retired (wedged) incarnations — only safe once
    their stuck tasks have been released (see [on_pool_retired]);
    without it they are abandoned. *)
