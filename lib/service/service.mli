(** A multi-tenant, supervised front door over {!Dfd_runtime.Pool}.

    [Pool.run] is a one-shot, fail-open entry point: an unhandled worker
    wedge or a saturated queue has no recovery path, and a single greedy
    caller starves every other one.
    This module owns both problems:

    - {b Non-blocking admission} — {!submit} never blocks and never
      runs the job inline: it returns a {!handle} immediately.  The
      caller observes progress through {!poll} / {!await} / completion
      callbacks ({!Handle.on_done}) and may {!cancel} a job that has not
      started.
    - {b Weighted-fair isolation} ({!Tenant}, {!Fair_queue}) — each
      tenant owns a bounded lane dispatched by deficit round-robin and
      (under [Dfdeques]) its own adaptive-K budget.  The lane bound is
      the one admission defence: a submission that finds its lane full
      is shed ([Queue_full]).  A bully tenant can exhaust only its own
      lane and shrink only its own K — the admission-level analogue of
      the paper's per-deque isolation.
    - {b Deadlines and retries} — each attempt runs under
      [Pool.run ?timeout]; failures and timeouts are retried under a
      seeded full-jitter backoff policy ({!Retry}) with a per-job budget.
    - {b Supervision} — jobs execute on a dedicated executor domain; the
      driver watches {!Dfd_runtime.Pool.heartbeat} while an attempt is in
      flight.  When the pool stalls for [wedge_grace] seconds the driver
      tries {e surgical quarantine} first: a worker that crashed (raised
      its certificate) or wedged inside the scheduler — holding a
      taken-but-unstarted task with its per-worker activity clock flat —
      is quarantined in place ({!Dfd_runtime.Pool.quarantine}); its held
      task is recovered exactly once, the pool continues degraded at
      [p-1] (the Theorem-4.4 budget gauge shrinks with it), and the slot
      may be refilled under [worker_respawn_budget].  Only when no slot
      is quarantinable — e.g. a worker stuck inside user code, which has
      already {e started} its task — does the stall escalate to the
      wholesale verdict: the pool is killed, a fresh pool and executor
      are spawned, and the in-flight job is requeued {e exactly once} at
      the front — the ledger guarantees zero lost jobs and zero
      duplicated completion acknowledgements (a late result from a
      retired epoch is structurally ignored).
    - {b Per-tenant adaptive K} ({!Quota_ctl}) — under a [Dfdeques]
      policy each tenant's observed allocation pressure drives {e its}
      memory threshold K down toward the Theorem 4.4 space bound and
      back up when pressure subsides; each dispatch applies the job's
      tenant K to the pool ([Pool.run ?quota]), so one tenant degrading
      to K = k_min never costs its neighbours their locality.

    The service is {e step-driven} from one driver thread: {!step}
    advances a logical clock by one, promotes due retries, dispatches at
    most one queued attempt (in DRR order) to completion, and runs the
    quota-control interval.  All scheduling decisions (DRR order, retry
    delays, quota trajectories, rejections, latencies in steps) are
    functions of the seed and the submission order, never of wall-clock
    time — which is what makes `repro soak` reports byte-identical per
    seed.  Only the {e timing} inside the pool is nondeterministic;
    outcome classes are not. *)

type reject_reason =
  | Queue_full  (** the tenant's own lane (queued + retrying + in flight) is at its bound. *)

val reject_reason_name : reject_reason -> string
(** "queue_full". *)

type outcome =
  | Completed
  | Failed of string  (** retry budget exhausted; the last error. *)
  | Rejected of reject_reason  (** shed at admission; assigned synchronously by {!submit}. *)
  | Cancelled  (** {!cancel} removed the job before it ran. *)

type handle = outcome Handle.t
(** The caller's view of one submission; see {!Handle}. *)

type config = {
  seed : int;  (** master seed for every retry stream. *)
  tenants : Tenant.t list;
      (** the admission lanes; must be non-empty with unique names.
          Single-tenant services use [[Tenant.default]]. *)
  retry : Retry.policy;
  quota_ctl : Quota_ctl.config option;
      (** [Some template] enables a per-tenant adaptive-K controller
          (Dfdeques pools only; ignored under Work_stealing).  A tenant
          with its own [Tenant.quota] overrides the template. *)
  default_deadline : float option;  (** per-attempt [Pool.run] timeout, seconds. *)
  wedge_grace : float;
      (** seconds without pool heartbeat progress (while an attempt is in
          flight) before the pool is declared wedged and respawned.  Must
          exceed the longest fork-free stretch of any legitimate job. *)
  domains : int;  (** extra worker domains per pool incarnation. *)
  max_respawns : int;  (** hard cap on pool respawns before {!Supervisor_giveup}. *)
  worker_respawn_budget : int;
      (** how many quarantined worker slots each pool incarnation may
          refill with fresh domains ([Pool.respawn_worker]); 0 (the
          default) leaves quarantined slots dead, running degraded until
          the wholesale respawn backstop fires. *)
  on_pool_retired : (in_flight:int option -> unit) option;
      (** called after a wedged pool is killed, with the requeued job's
          id; test harnesses use it to release their wedge tasks so the
          abandoned domain can exit and be reaped. *)
}

val default_config : config
(** seed 0, the single [Tenant.default] lane, {!Retry.default}, no quota
    controller, no default deadline, grace 5 s, 2 extra domains, 8
    respawns, no worker respawn budget. *)

exception Supervisor_giveup of string
(** More than [max_respawns] pool respawns: the supervisor refuses to
    keep restarting a pool that keeps wedging. *)

type t

val create :
  ?tracer:Dfd_trace.Tracer.t ->
  ?fault:Dfd_fault.Fault.t ->
  ?registry:Dfd_obs.Registry.t ->
  ?flight_dir:string ->
  ?headroom_s1:int ->
  ?headroom_depth:int ->
  ?config:config ->
  Dfd_runtime.Pool.policy ->
  t
(** Start the service: spawns the first pool incarnation and its
    executor domain.  Under [Dfdeques], enabled quota controllers
    override the policy's initial K with the largest tenant [k_init].

    [fault] (default {!Dfd_fault.Fault.none}) is a seeded injector
    threaded into every pool incarnation — the fault tests
    ([test_fault], [test_runtime]) and [repro soak --plan] arm the
    one-shot crash/wedge triggers through it to drive the supervisor's
    surgical-quarantine path deterministically.

    [registry] (default: a fresh private {!Dfd_obs.Registry.t}) receives
    the service's stable [dfd_service_*] probes (including per-tenant
    lanes labelled [tenant="..."]), the pool's unstable [dfd_pool_*]
    instruments (series continuous across respawns), and the
    [policy="service"] {!Dfd_obs.Headroom} gauge family.  Pass
    {!Dfd_obs.Registry.disabled} to run with zero-cost telemetry.

    [flight_dir], when set, enables crash forensics: on a wedge, an
    attempt timeout, or a supervisor give-up, the current incarnation's
    flight-recorder ring is dumped to
    [flight_dir/flight_<reason>_step<clock>.json] (best-effort; dump
    failures never mask the fault being reported).

    [headroom_s1] / [headroom_depth] (default 0) are configuration
    estimates of serial space and dag depth for the Theorem-4.4 budget
    gauge — the service cannot derive them because the dag is unknown
    until executed; the simulator path computes them exactly. *)

val submit :
  t ->
  ?tenant:string ->
  ?class_:string ->
  ?deadline:float ->
  ?on_done:(outcome -> unit) ->
  (unit -> unit) ->
  handle
(** Offer a job to [tenant]'s lane (default ["default"]; unknown tenants
    raise [Invalid_argument]).  Never blocks, never runs the job inline:
    the returned handle is either [Queued] (admitted) or already
    [Done (Rejected Queue_full)] (the lane's load — queued, retrying and
    in flight — was at its bound; the rejection is also recorded in the
    ledger).  [class_] labels the job in the ledger.  [deadline]
    overrides the config's per-attempt timeout.  [on_done] is registered
    on the handle before admission is decided, so even a synchronous
    rejection fires it.  The work closure runs inside [Pool.run] on the
    executor domain, so it may use [Pool.fork_join], [Pool.alloc_hint],
    etc. *)

val admission : handle -> (int, reject_reason) result
(** [Ok id] — the submission was admitted;
    [Error r] — it was shed synchronously.  Sound to call right after
    {!submit} because [Rejected] is only ever assigned at admission. *)

val poll : handle -> outcome Handle.status
(** Alias for {!Handle.status}. *)

val await : ?max_steps:int -> t -> handle -> outcome option
(** Drive {!step} until the handle is terminal; [None] if [max_steps]
    (default 10_000) elapse first.  Single-driver-thread only. *)

val cancel : t -> handle -> bool
(** Remove a not-yet-started job: queued or waiting between retries.
    On success the job is acknowledged [Cancelled] (callbacks fire) and
    [true] is returned; [false] if the job already started or
    finished. *)

val step : t -> unit
(** Advance the logical clock by one: promote due retries, dispatch and
    fully execute at most one queued attempt (in DRR order, under the
    job's tenant K, blocking, with wedge supervision), then run the
    quota-control interval. *)

val drive : ?max_steps:int -> t -> unit
(** {!step} until the service is idle (no queued jobs, no pending
    retries) or [max_steps] (default 10_000) steps have elapsed. *)

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
  cancelled : int;
  retries : int;  (** re-attempts scheduled with backoff. *)
  timeouts : int;  (** attempts that hit their deadline. *)
  wedges : int;  (** pool incarnations declared wedged. *)
  quarantines : int;
      (** workers surgically quarantined inside a live pool instead of a
          wholesale respawn. *)
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
  ts_cancelled : int;
  ts_rejected_queue_full : int;
  ts_first_shed : int option;  (** first step at which a submission of this tenant was rejected. *)
  ts_peak_depth : int;  (** high watermark of the tenant's queued jobs. *)
  ts_latency : Dfd_structures.Stats.Histogram.t;
      (** completion latency in steps (submit → terminal ack) of completed
          jobs. *)
  ts_quota : int option;  (** the tenant's current K; [None] without a controller. *)
  ts_quota_trajectory : (int * int) list;
}

val tenant_stats : t -> tenant_stats list
(** One entry per tenant, in registration (= DRR) order. *)

type entry = {
  job : int;
  tenant : string;
  class_ : string;
  attempts : int;  (** attempts consumed (0 for rejected/cancelled jobs). *)
  requeues : int;  (** wedge requeues (each exactly one per wedge). *)
  outcome : outcome option;  (** [None] only while still queued/retrying. *)
}

val ledger : t -> entry list
(** Every submission ever offered, in id order. *)

val verify_ledger : t -> (unit, string) result
(** The exactly-once audit, meaningful once {!idle}: every entry carries
    exactly one terminal outcome (no lost jobs), no duplicate
    acknowledgements were attempted, and the counters are consistent
    with the entries (accepted + rejected = submissions).
    [Error msg] pinpoints the first violation. *)

val quota : t -> int option
(** The largest current per-tenant K — the value the Theorem-4.4 budget
    gauge is computed from ([None] under Work_stealing). *)

val quota_trajectory : t -> (int * int) list
(** All tenants' K changes as [(step, new_K)] merged in step order
    (stable within a step by tenant registration order); empty without a
    controller.  With a single tenant this is exactly that tenant's
    trajectory. *)

val pool_counters : t -> Dfd_runtime.Pool.counters
(** Counters of the {e current} pool incarnation. *)

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
