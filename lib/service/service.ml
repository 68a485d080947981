module Pool = Dfd_runtime.Pool
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
module Registry = Dfd_obs.Registry
module Openmetrics = Dfd_obs.Openmetrics
module Headroom = Dfd_obs.Headroom
module Stats = Dfd_structures.Stats

type reject_reason = Queue_full

let reject_reason_name Queue_full = "queue_full"

type outcome = Completed | Failed of string | Rejected of reject_reason | Cancelled

type handle = outcome Handle.t

type config = {
  seed : int;
  tenants : Tenant.t list;
  retry : Retry.policy;
  quota_ctl : Quota_ctl.config option;
  default_deadline : float option;
  wedge_grace : float;
  domains : int;
  max_respawns : int;
  worker_respawn_budget : int;
  on_pool_retired : (in_flight:int option -> unit) option;
}

let default_config =
  {
    seed = 0;
    tenants = [ Tenant.default ];
    retry = Retry.default;
    quota_ctl = None;
    default_deadline = None;
    wedge_grace = 5.0;
    domains = 2;
    max_respawns = 8;
    worker_respawn_budget = 0;
    on_pool_retired = None;
  }

exception Supervisor_giveup of string

(* A give-up is a typed terminal verdict: if it escapes into a job's work
   closure (nested service, callback), retrying that job would burn its
   whole backoff budget reaching the same verdict. *)
let () = Retry.register_terminal (function Supervisor_giveup _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Jobs and the executor protocol                                      *)
(* ------------------------------------------------------------------ *)

type ledger_slot = {
  l_id : int;
  l_tenant : string;
  l_class : string;
  mutable l_attempts : int;
  mutable l_requeues : int;
  mutable l_outcome : outcome option;
  mutable l_acks : int;
}

type job = {
  id : int;
  tenant : string;
  deadline : float option;
  work : unit -> unit;
  retry : Retry.t;
  submitted_at : int;
  handle : handle;
  mutable run_quota : int option;  (** tenant K, stamped by the driver at dispatch. *)
}

type exec_result =
  | R_done
  | R_timeout
  | R_cancelled_leak  (** [Pool.Cancelled] escaped [run] — a pool bug; surfaced, never swallowed. *)
  | R_exn of { msg : string; retryable : bool }
      (** [retryable] is classified at the raise site ({!Retry.is_terminal}
          needs the live exception, not its string). *)

(* The driver/executor mailbox.  Single-writer per transition:
   the driver writes [Assigned] (only over [Idle]) and [Idle] (only over
   [Finished]); the executor writes [Finished] (only over [Assigned]).
   A retired epoch's cell is simply never read again, so a late result
   from a wedged incarnation is structurally incapable of acknowledging
   anything — the "zero duplicated acks" half of the supervision
   contract. *)
type cell =
  | Idle
  | Assigned of job
  | Finished of { job_id : int; result : exec_result }

type epoch = {
  pool : Pool.t;
  cell : cell Atomic.t;
  retired : bool Atomic.t;
  mutable exec : unit Domain.t option;
}

(* Poll helper: bounded spin, then micro-sleep — the service trades a few
   hundred microseconds of dispatch latency for not burning a core. *)
let relax spins = if spins < 200 then Domain.cpu_relax () else Unix.sleepf 0.0002

let executor_loop ep =
  let rec loop spins =
    match Atomic.get ep.cell with
    | Assigned job ->
      let result =
        match Pool.run ?timeout:job.deadline ?quota:job.run_quota ep.pool job.work with
        | () -> R_done
        | exception Pool.Timeout -> R_timeout
        | exception Pool.Cancelled -> R_cancelled_leak
        | exception e ->
          R_exn { msg = Printexc.to_string e; retryable = not (Retry.is_terminal e) }
      in
      Atomic.set ep.cell (Finished { job_id = job.id; result });
      loop 0
    | Idle | Finished _ ->
      if Atomic.get ep.retired then ()
      else begin
        relax spins;
        loop (spins + 1)
      end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Ledger and per-tenant lanes                                         *)
(* ------------------------------------------------------------------ *)

type entry = {
  job : int;
  tenant : string;
  class_ : string;
  attempts : int;
  requeues : int;
  outcome : outcome option;
}

type counters = {
  accepted : int;
  coalesced : int;
  rejected_queue_full : int;
  rejected_breaker_open : int;
  rejected_memory_pressure : int;
  rejected_overloaded : int;
  completions : int;
  failures : int;
  cancelled : int;
  retries : int;
  timeouts : int;
  wedges : int;
  quarantines : int;
  respawns : int;
  duplicate_acks : int;
}

type tenant_stats = {
  ts_name : string;
  ts_weight : int;
  ts_bound : int;
  ts_accepted : int;
  ts_completions : int;
  ts_failures : int;
  ts_cancelled : int;
  ts_rejected_queue_full : int;
  ts_first_shed : int option;
  ts_peak_depth : int;
  ts_latency : Stats.Histogram.t;
  ts_quota : int option;
  ts_quota_trajectory : (int * int) list;
}

(* One admission lane's bookkeeping; the queue itself lives in the
   shared Fair_queue. *)
type lane = {
  tn : Tenant.t;
  l_qctl : Quota_ctl.t option;
  lat : Stats.Histogram.t;
  mutable in_flight : int;  (* 0 or 1 *)
  mutable pending_retries : int;
  mutable a_accepted : int;
  mutable a_completions : int;
  mutable a_failures : int;
  mutable a_cancelled : int;
  mutable a_rej_queue : int;
  mutable a_first_shed : int option;
}

type t = {
  cfg : config;
  policy : Pool.policy;
  fault : Dfd_fault.Fault.t;
      (** seeded injector threaded into every pool incarnation — the
          fault tests and [repro soak --plan] arm crash/wedge triggers
          through it; {!Dfd_fault.Fault.none} in production. *)
  tracer : Tracer.t;
  registry : Registry.t;  (** live telemetry; shared with every pool incarnation. *)
  headroom : Headroom.t;
      (** Theorem-4.4 gauges over the service's pool; also owns the
          pressure baseline the quota tick consumes. *)
  flight_dir : string option;  (** where wedge/timeout/give-up dumps land. *)
  mutable epoch : epoch;
  mutable retired_epochs : epoch list;
  mutable clock : int;
  queue : job Fair_queue.t;  (** per-tenant bounded lanes, DRR dispatch. *)
  mutable pending : (int * job) list;  (** retries waiting for their due step. *)
  lanes : (string, lane) Hashtbl.t;
  lane_order : string list;  (** registration (= DRR) order. *)
  slots : (int, ledger_slot) Hashtbl.t;
  mutable next_id : int;
  (* global counters *)
  mutable c_accepted : int;
  mutable c_rej_queue : int;
  mutable c_completions : int;
  mutable c_failures : int;
  mutable c_cancelled : int;
  mutable c_retries : int;
  mutable c_timeouts : int;
  mutable c_wedges : int;
  mutable c_quarantines : int;
  mutable c_respawns : int;
  mutable c_dup_acks : int;
}

let lane_of t name =
  match Hashtbl.find_opt t.lanes name with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Service: unknown tenant %S" name)

let lanes_in_order t = List.map (fun n -> Hashtbl.find t.lanes n) t.lane_order

(* ------------------------------------------------------------------ *)
(* Pool incarnations                                                   *)
(* ------------------------------------------------------------------ *)

let max_lane_quota lanes =
  List.fold_left
    (fun acc l -> match l.l_qctl with Some qc -> max acc (Quota_ctl.quota qc) | None -> acc)
    0 lanes

let effective_policy ~policy ~k0 =
  match policy with
  | Pool.Dfdeques _ when k0 > 0 -> Pool.Dfdeques { quota = k0 }
  | p -> p

let spawn_raw_epoch ?(fault = Dfd_fault.Fault.none) ~domains ~policy ~k0 ~registry
    ~respawn_budget () =
  let domains = max 0 domains in
  (* each incarnation gets a fresh flight ring (forensics belong to one
     pool's lifetime; read back through [Pool.flight]) but shares the
     registry, whose upsert registration keeps the dfd_pool_* series
     continuous across respawns.  One lane per worker — the caller slot
     included — plus the last for this driver's quarantines. *)
  let flight = Tracer.create ~capacity:256 ~lanes:(domains + 2) () in
  let pool =
    Pool.create ~domains ~fault ~registry ~flight ~respawn_budget
      (effective_policy ~policy ~k0)
  in
  let ep = { pool; cell = Atomic.make Idle; retired = Atomic.make false; exec = None } in
  ep.exec <- Some (Domain.spawn (fun () -> executor_loop ep));
  ep

let spawn_epoch t =
  let k0 = max_lane_quota (lanes_in_order t) in
  let ep =
    spawn_raw_epoch ~fault:t.fault ~domains:t.cfg.domains ~policy:t.policy ~k0
      ~registry:t.registry ~respawn_budget:t.cfg.worker_respawn_budget ()
  in
  (* the fresh pool's alloc counter restarts at 0 *)
  Headroom.reset_pressure t.headroom;
  ep

(* The service's own supervision counters exposed as stable probes: they
   are pure functions of (seed, submission order), so they may appear in
   byte-deterministic reports — unlike the dfd_pool_* instruments the
   shared registry also carries, which race with running domains and are
   therefore registered unstable. *)
let register_service_probes t =
  let r = t.registry in
  let c name help f = Registry.probe r ~stable:true ~kind:`Counter ~help name f in
  let g name help f = Registry.probe r ~stable:true ~kind:`Gauge ~help name f in
  c "dfd_service_accepted_total" "Submissions admitted to a lane." (fun () -> t.c_accepted);
  c "dfd_service_rejected_total{reason=\"queue_full\"}" "Submissions shed, by reason." (fun () ->
      t.c_rej_queue);
  c "dfd_service_completions_total" "Jobs acknowledged Completed." (fun () -> t.c_completions);
  c "dfd_service_failures_total" "Jobs acknowledged Failed (retry budget exhausted)." (fun () ->
      t.c_failures);
  c "dfd_service_cancelled_total" "Jobs cancelled before they ran." (fun () -> t.c_cancelled);
  c "dfd_service_retries_total" "Re-attempts scheduled with backoff." (fun () -> t.c_retries);
  c "dfd_service_timeouts_total" "Attempts that hit their deadline." (fun () -> t.c_timeouts);
  c "dfd_service_wedges_total" "Pool incarnations declared wedged." (fun () -> t.c_wedges);
  c "dfd_service_quarantines_total" "Workers surgically quarantined instead of a pool respawn."
    (fun () -> t.c_quarantines);
  c "dfd_service_respawns_total" "Fresh pool incarnations after a wedge." (fun () -> t.c_respawns);
  c "dfd_service_duplicate_acks_total" "Terminal acks refused (0 in a correct run)." (fun () ->
      t.c_dup_acks);
  g "dfd_service_queue_depth" "Jobs queued across all lanes, not yet dispatched." (fun () ->
      Fair_queue.total t.queue);
  g "dfd_service_pending_retries" "Retries waiting for their due step." (fun () ->
      List.length t.pending);
  g "dfd_service_clock" "The driver's logical clock (steps)." (fun () -> t.clock);
  g "dfd_service_quota_bytes" "Largest tenant memory threshold K (0 under Work_stealing)."
    (fun () ->
      match max_lane_quota (lanes_in_order t) with
      | 0 -> ( match Pool.quota t.epoch.pool with Some k -> k | None -> 0)
      | k -> k);
  (* per-tenant lanes, labelled so OpenMetrics renders one family *)
  List.iter
    (fun name ->
       let lane = Hashtbl.find t.lanes name in
       let lbl fam = Registry.labeled fam [ ("tenant", name) ] in
       c (lbl "dfd_tenant_accepted_total") "Per-tenant admissions." (fun () -> lane.a_accepted);
       c (lbl "dfd_tenant_completions_total") "Per-tenant completions." (fun () ->
           lane.a_completions);
       c (lbl "dfd_tenant_shed_total") "Per-tenant rejections." (fun () -> lane.a_rej_queue);
       g (lbl "dfd_tenant_queue_depth") "Per-tenant queued jobs." (fun () ->
           Fair_queue.depth t.queue name);
       g (lbl "dfd_tenant_quota_bytes") "Per-tenant memory threshold K." (fun () ->
           match lane.l_qctl with Some qc -> Quota_ctl.quota qc | None -> 0))
    t.lane_order

let create ?(tracer = Tracer.disabled) ?(fault = Dfd_fault.Fault.none) ?registry ?flight_dir
    ?headroom_s1 ?headroom_depth ?(config = default_config) policy =
  Tenant.validate_all config.tenants;
  if config.wedge_grace <= 0.0 then invalid_arg "Service: wedge_grace must be positive";
  if config.max_respawns < 0 then invalid_arg "Service: max_respawns must be >= 0";
  if config.worker_respawn_budget < 0 then
    invalid_arg "Service: worker_respawn_budget must be >= 0";
  Retry.validate config.retry;
  let registry = match registry with Some r -> r | None -> Registry.create () in
  let queue = Fair_queue.create () in
  let lanes = Hashtbl.create 8 in
  let lane_order = List.map (fun (tn : Tenant.t) -> tn.name) config.tenants in
  List.iter
    (fun (tn : Tenant.t) ->
       Fair_queue.add_tenant queue ~name:tn.name ~weight:tn.weight ~bound:tn.queue_bound;
       let l_qctl =
         match policy with
         | Pool.Work_stealing -> None
         | Pool.Dfdeques _ -> (
           match (tn.quota, config.quota_ctl) with
           | Some qcfg, _ | None, Some qcfg -> Some (Quota_ctl.create qcfg)
           | None, None -> None)
       in
       Hashtbl.replace lanes tn.name
         {
           tn;
           l_qctl;
           lat = Stats.Histogram.create ();
           in_flight = 0;
           pending_retries = 0;
           a_accepted = 0;
           a_completions = 0;
           a_failures = 0;
           a_cancelled = 0;
           a_rej_queue = 0;
           a_first_shed = None;
         })
    config.tenants;
  let lane_list = List.map (fun n -> Hashtbl.find lanes n) lane_order in
  let k0 =
    match max_lane_quota lane_list with
    | 0 -> ( match policy with Pool.Dfdeques { quota } -> quota | Pool.Work_stealing -> 0)
    | k -> k
  in
  let headroom =
    Headroom.create ~registry ~policy:"service" ?s1:headroom_s1 ?depth:headroom_depth
      ~p:(max 0 config.domains + 1) ~k:k0 ()
  in
  let t =
    {
      cfg = config;
      policy;
      fault;
      tracer;
      registry;
      headroom;
      flight_dir;
      epoch =
        spawn_raw_epoch ~fault ~domains:config.domains ~policy ~k0 ~registry
          ~respawn_budget:config.worker_respawn_budget ();
      retired_epochs = [];
      clock = 0;
      queue;
      pending = [];
      lanes;
      lane_order;
      slots = Hashtbl.create 64;
      next_id = 0;
      c_accepted = 0;
      c_rej_queue = 0;
      c_completions = 0;
      c_failures = 0;
      c_cancelled = 0;
      c_retries = 0;
      c_timeouts = 0;
      c_wedges = 0;
      c_quarantines = 0;
      c_respawns = 0;
      c_dup_acks = 0;
    }
  in
  register_service_probes t;
  t

(* Crash forensics: serialise the current incarnation's flight ring to
   [flight_dir], with the pool's diagnostic snapshot embedded so the
   post-mortem state travels with the artifact instead of living only in
   an exception message.  Best-effort by design — a dump failure must
   never mask the wedge/timeout it is trying to explain. *)
let flight_dump t ~reason =
  match t.flight_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (Printf.sprintf "flight_%s_step%05d.json" reason t.clock) in
    let snapshot = try Pool.snapshot t.epoch.pool with _ -> "pool snapshot unavailable" in
    try Tracer.write_file ~snapshot ~path ~reason (Pool.flight t.epoch.pool)
    with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Ledger bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let new_slot t ~tenant ~class_ =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    {
      l_id = id;
      l_tenant = tenant;
      l_class = class_;
      l_attempts = 0;
      l_requeues = 0;
      l_outcome = None;
      l_acks = 0;
    }
  in
  Hashtbl.replace t.slots id s;
  s

(* The single choke point for terminal acknowledgements: the first ack
   wins, any further one is counted as a duplicate and refused. *)
let ack t (s : ledger_slot) out =
  s.l_acks <- s.l_acks + 1;
  match s.l_outcome with
  | Some _ -> t.c_dup_acks <- t.c_dup_acks + 1
  | None ->
    s.l_outcome <- Some out;
    let lane = lane_of t s.l_tenant in
    (match out with
     | Completed ->
       t.c_completions <- t.c_completions + 1;
       lane.a_completions <- lane.a_completions + 1
     | Failed _ ->
       t.c_failures <- t.c_failures + 1;
       lane.a_failures <- lane.a_failures + 1
     | Cancelled ->
       t.c_cancelled <- t.c_cancelled + 1;
       lane.a_cancelled <- lane.a_cancelled + 1
     | Rejected _ -> ())

(* Terminal outcome for a job: ledger, latency and handle. *)
let settle t (job : job) (s : ledger_slot) out =
  ack t s out;
  (match out with
   | Completed ->
     Stats.Histogram.add (lane_of t job.tenant).lat (float_of_int (t.clock - job.submitted_at))
   | _ -> ());
  Handle.resolve job.handle out

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let effective_load t lane =
  Fair_queue.depth t.queue lane.tn.Tenant.name + lane.pending_retries + lane.in_flight

(* The lane bound is the one admission check.  The load counts pending
   retries and the in-flight attempt, so forced retry pushes can never
   overrun the bound. *)
let submit t ?(tenant = "default") ?(class_ = "default") ?deadline ?on_done work =
  let lane = lane_of t tenant in
  let h = Handle.make ~id:t.next_id ~tenant in
  (match on_done with Some f -> Handle.on_done h f | None -> ());
  let s = new_slot t ~tenant ~class_ in
  if effective_load t lane >= lane.tn.Tenant.queue_bound then begin
    ack t s (Rejected Queue_full);
    t.c_rej_queue <- t.c_rej_queue + 1;
    lane.a_rej_queue <- lane.a_rej_queue + 1;
    if lane.a_first_shed = None then lane.a_first_shed <- Some t.clock;
    Handle.resolve h (Rejected Queue_full)
  end
  else begin
    let deadline = match deadline with Some _ as d -> d | None -> t.cfg.default_deadline in
    let job =
      {
        id = s.l_id;
        tenant;
        deadline;
        work;
        retry = Retry.create t.cfg.retry ~seed:t.cfg.seed ~job:s.l_id;
        submitted_at = t.clock;
        handle = h;
        run_quota = None;
      }
    in
    Fair_queue.push_force t.queue ~tenant job;
    t.c_accepted <- t.c_accepted + 1;
    lane.a_accepted <- lane.a_accepted + 1
  end;
  h

let admission h =
  match Handle.status h with
  | Handle.Done (Rejected r) -> Error r
  | _ -> Ok (Handle.id h)

let poll = Handle.status

let cancel t h =
  if Handle.is_done h then false
  else begin
    let id = Handle.id h in
    let tenant = Handle.tenant h in
    match Fair_queue.remove t.queue ~tenant (fun (j : job) -> j.id = id) with
    | Some job ->
      settle t job (Hashtbl.find t.slots id) Cancelled;
      true
    | None -> (
      match List.find_opt (fun (_, (j : job)) -> j.id = id) t.pending with
      | Some (_, job) ->
        t.pending <- List.filter (fun (_, (j : job)) -> j.id <> id) t.pending;
        (lane_of t tenant).pending_retries <- (lane_of t tenant).pending_retries - 1;
        settle t job (Hashtbl.find t.slots id) Cancelled;
        true
      | None -> false)
  end

(* ------------------------------------------------------------------ *)
(* Supervision: dispatch, wedge detection, respawn                     *)
(* ------------------------------------------------------------------ *)

(* Block until the executor posts this job's result, watching the pool's
   heartbeat; [None] = the pool made no progress for [wedge_grace]
   seconds with the attempt still in flight — declared wedged.

   Surgery precedes amputation: before escalating a stall to the
   wholesale pool-wedge verdict, the driver looks for a worker it can
   quarantine in place.  A candidate is any non-caller slot that either
   raised its own crash certificate ([w_stopped]; normally peers reap
   these themselves, so this is a backstop for an otherwise-idle pool)
   or bears the wedge signature: it holds a taken-but-unstarted task
   while its per-worker activity clock sat flat across the whole grace
   window.  The [w_holding] requirement is what makes the verdict sound
   — a worker stuck inside {e user} code has already started its task
   ([w_holding] false), cannot be safely quarantined, and correctly
   escalates to the pool respawn backstop.  A won quarantine shrinks
   the Theorem-4.4 budget to the degraded p, optionally respawns the
   slot under the worker respawn budget, dumps forensics, resets the
   stall clock and keeps waiting: the pool continues at p-1. *)
let await_result t (job : job) =
  let ep = t.epoch in
  let last_hb = ref (Pool.heartbeat ep.pool) in
  let stall_base = ref (Pool.worker_states ep.pool) in
  let last_progress = ref (Unix.gettimeofday ()) in
  let reset_stall () =
    last_progress := Unix.gettimeofday ();
    stall_base := Pool.worker_states ep.pool
  in
  let try_surgical () =
    let states = Pool.worker_states ep.pool in
    let won = ref false in
    Array.iteri
      (fun w (st : Pool.worker_state) ->
         if
           w > 0
           && (not st.Pool.w_quarantined)
           && (st.Pool.w_stopped
              || (st.Pool.w_holding && st.Pool.w_activity = (!stall_base).(w).Pool.w_activity))
         then begin
           let cause = if st.Pool.w_stopped then "crash" else "wedge" in
           if Pool.quarantine ~cause ep.pool w then begin
             t.c_quarantines <- t.c_quarantines + 1;
             Headroom.set_p t.headroom (Pool.degraded_p ep.pool);
             flight_dump t ~reason:(Printf.sprintf "quarantine_w%d" w);
             if Pool.respawn_worker ep.pool w then
               Headroom.set_p t.headroom (Pool.degraded_p ep.pool);
             won := true
           end
         end)
      states;
    !won
  in
  let rec go spins =
    match Atomic.get ep.cell with
    | Finished { job_id; result } when job_id = job.id ->
      Atomic.set ep.cell Idle;
      Some result
    | Finished _ ->
      (* a result for a job this epoch never ran: impossible by the
         single-writer protocol *)
      assert false
    | Idle | Assigned _ ->
      let hb = Pool.heartbeat ep.pool in
      if hb <> !last_hb then begin
        last_hb := hb;
        reset_stall ()
      end;
      if Unix.gettimeofday () -. !last_progress > t.cfg.wedge_grace then
        if try_surgical () then begin
          reset_stall ();
          go 0
        end
        else None
      else begin
        relax spins;
        go (spins + 1)
      end
  in
  go 0

let respawn t ~in_flight =
  t.c_wedges <- t.c_wedges + 1;
  if t.c_respawns >= t.cfg.max_respawns then begin
    flight_dump t ~reason:"giveup";
    raise
      (Supervisor_giveup
         (Printf.sprintf "pool wedged %d times (max_respawns %d); last snapshot:\n%s"
            t.c_wedges t.cfg.max_respawns (Pool.snapshot t.epoch.pool)))
  end;
  flight_dump t ~reason:"wedge";
  t.c_respawns <- t.c_respawns + 1;
  let old = t.epoch in
  Atomic.set old.retired true;
  Pool.kill old.pool;
  t.retired_epochs <- old :: t.retired_epochs;
  (match t.cfg.on_pool_retired with
   | Some f -> f ~in_flight
   | None -> ());
  t.epoch <- spawn_epoch t

(* Schedule a retry (with backoff) or acknowledge the final failure.
   [retryable:false] (a terminal error class per {!Retry.is_terminal})
   skips the backoff schedule entirely: the remaining budget would be
   burned reaching the same deterministic failure. *)
let fail_path ?(retryable = true) t (job : job) msg =
  let lane = lane_of t job.tenant in
  if not retryable then settle t job (Hashtbl.find t.slots job.id) (Failed msg)
  else
    match Retry.next_delay job.retry with
    | Some d ->
      t.c_retries <- t.c_retries + 1;
      lane.pending_retries <- lane.pending_retries + 1;
      t.pending <- (t.clock + d, job) :: t.pending
    | None ->
      let s = Hashtbl.find t.slots job.id in
      s.l_attempts <- Retry.attempts job.retry;
      settle t job s (Failed msg)

(* Run one attempt to completion, attributing its allocation delta to
   the job's tenant.  Returns the measured delta (0 on a wedge). *)
let run_one t (job : job) =
  let s = Hashtbl.find t.slots job.id in
  let lane = lane_of t job.tenant in
  lane.in_flight <- 1;
  job.run_quota <- Option.map Quota_ctl.quota lane.l_qctl;
  let before = (Pool.counters t.epoch.pool).Pool.alloc_bytes in
  (match Atomic.get t.epoch.cell with
   | Idle -> ()
   | _ -> assert false);
  Atomic.set t.epoch.cell (Assigned job);
  let result = await_result t job in
  let delta =
    match result with
    | None -> 0
    | Some _ ->
      (* the pool is idle again (the executor posted Finished), so the
         counter sum is exact: the delta is this attempt's allocation *)
      max 0 ((Pool.counters t.epoch.pool).Pool.alloc_bytes - before)
  in
  if delta > 0 then Headroom.observe t.headroom ~live_bytes:delta;
  (match result with
   | Some R_done ->
     s.l_attempts <- Retry.attempts job.retry + 1;
     settle t job s Completed
   | Some R_timeout ->
     flight_dump t ~reason:"timeout";
     t.c_timeouts <- t.c_timeouts + 1;
     s.l_attempts <- Retry.attempts job.retry + 1;
     fail_path t job "deadline exceeded"
   | Some R_cancelled_leak ->
     s.l_attempts <- Retry.attempts job.retry + 1;
     fail_path t job "internal: Pool.Cancelled leaked to the run caller"
   | Some (R_exn { msg; retryable }) ->
     s.l_attempts <- Retry.attempts job.retry + 1;
     fail_path ~retryable t job msg
   | None ->
     (* wedged: respawn the pool, requeue the in-flight job exactly once
        at the front.  The requeue consumes a retry attempt (a job that
        wedges every incarnation must not respawn pools forever). *)
     respawn t ~in_flight:(Some job.id);
     s.l_requeues <- s.l_requeues + 1;
     (match Retry.next_delay job.retry with
      | Some _ ->
        t.c_retries <- t.c_retries + 1;
        Fair_queue.push_front t.queue ~tenant:job.tenant job
      | None ->
        s.l_attempts <- Retry.attempts job.retry;
        settle t job s (Failed "pool wedged; retry budget exhausted")));
  lane.in_flight <- 0;
  delta

(* ------------------------------------------------------------------ *)
(* The driver clock                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-tenant quota control: the dispatched tenant observes its
   attempt's measured allocation delta, every other lane observes 0 (its
   EWMA decays, so an idle tenant's K recovers).  One tenant pinned at
   its floor costs only its own locality. *)
let quota_tick t ~dispatched ~delta =
  (* keep the global alloc-rate gauge and pressure baseline current *)
  ignore
    (Headroom.take_pressure t.headroom
       ~cumulative_alloc:(Pool.counters t.epoch.pool).Pool.alloc_bytes);
  List.iter
    (fun lane ->
       match lane.l_qctl with
       | None -> ()
       | Some qc ->
         let pressure =
           match dispatched with Some name when name = lane.tn.Tenant.name -> delta | _ -> 0
         in
         (match Quota_ctl.observe qc ~now:t.clock ~pressure with
          | Quota_ctl.Steady -> ()
          | Quota_ctl.Shrink { from_quota; to_quota } | Quota_ctl.Grow { from_quota; to_quota }
            ->
            (* the budget gauge tracks the largest K still in use *)
            Headroom.set_quota t.headroom (max_lane_quota (lanes_in_order t));
            if Tracer.enabled t.tracer then
              Tracer.emit t.tracer ~ts:t.clock ~proc:(-1) ~tid:(-1)
                (Event.Quota_adjusted { from_quota; to_quota; pressure })))
    (lanes_in_order t)

let step t =
  t.clock <- t.clock + 1;
  (* promote due retries, ordered by (due step, job id) so the dispatch
     order is a pure function of the schedule *)
  let due, rest = List.partition (fun (d, _) -> d <= t.clock) t.pending in
  t.pending <- rest;
  let due = List.sort (fun (d1, j1) (d2, j2) -> compare (d1, j1.id) (d2, j2.id)) due in
  List.iter
    (fun (_, (job : job)) ->
       (lane_of t job.tenant).pending_retries <- (lane_of t job.tenant).pending_retries - 1;
       Fair_queue.push_force t.queue ~tenant:job.tenant job)
    due;
  let dispatched, delta =
    match Fair_queue.pop t.queue with
    | None -> (None, 0)
    | Some (tenant, job) ->
      let delta = run_one t job in
      (Some tenant, delta)
  in
  quota_tick t ~dispatched ~delta

let idle t = Fair_queue.total t.queue = 0 && t.pending = []

let drive ?(max_steps = 10_000) t =
  let n = ref 0 in
  while (not (idle t)) && !n < max_steps do
    step t;
    incr n
  done

let await ?(max_steps = 10_000) t h =
  let n = ref 0 in
  while (not (Handle.is_done h)) && !n < max_steps do
    step t;
    incr n
  done;
  match Handle.status h with Handle.Done out -> Some out | _ -> None

let now t = t.clock

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let counters t =
  {
    accepted = t.c_accepted;
    coalesced = 0;
    rejected_queue_full = t.c_rej_queue;
    rejected_breaker_open = 0;
    rejected_memory_pressure = 0;
    rejected_overloaded = 0;
    completions = t.c_completions;
    failures = t.c_failures;
    cancelled = t.c_cancelled;
    retries = t.c_retries;
    timeouts = t.c_timeouts;
    wedges = t.c_wedges;
    quarantines = t.c_quarantines;
    respawns = t.c_respawns;
    duplicate_acks = t.c_dup_acks;
  }

let tenant_stats t =
  List.map
    (fun lane ->
       {
         ts_name = lane.tn.Tenant.name;
         ts_weight = lane.tn.Tenant.weight;
         ts_bound = lane.tn.Tenant.queue_bound;
         ts_accepted = lane.a_accepted;
         ts_completions = lane.a_completions;
         ts_failures = lane.a_failures;
         ts_cancelled = lane.a_cancelled;
         ts_rejected_queue_full = lane.a_rej_queue;
         ts_first_shed = lane.a_first_shed;
         ts_peak_depth = Fair_queue.peak_depth t.queue lane.tn.Tenant.name;
         ts_latency = lane.lat;
         ts_quota = Option.map Quota_ctl.quota lane.l_qctl;
         ts_quota_trajectory =
           (match lane.l_qctl with Some qc -> Quota_ctl.trajectory qc | None -> []);
       })
    (lanes_in_order t)

let ledger t =
  let out = ref [] in
  for id = t.next_id - 1 downto 0 do
    let s = Hashtbl.find t.slots id in
    out :=
      {
        job = s.l_id;
        tenant = s.l_tenant;
        class_ = s.l_class;
        attempts = s.l_attempts;
        requeues = s.l_requeues;
        outcome = s.l_outcome;
      }
      :: !out
  done;
  !out

let verify_ledger t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
  if t.c_dup_acks > 0 then fail "%d duplicate acknowledgements" t.c_dup_acks;
  let completions = ref 0
  and failures = ref 0
  and rejections = ref 0
  and cancellations = ref 0 in
  for id = 0 to t.next_id - 1 do
    let s = Hashtbl.find t.slots id in
    (match s.l_outcome with
     | None -> fail "job %d has no terminal outcome (lost)" id
     | Some Completed -> incr completions
     | Some (Failed _) -> incr failures
     | Some (Rejected _) -> incr rejections
     | Some Cancelled -> incr cancellations);
    if s.l_acks <> 1 then fail "job %d acknowledged %d times" id s.l_acks
  done;
  if !completions <> t.c_completions then
    fail "completion counter %d but %d completed entries" t.c_completions !completions;
  if !failures <> t.c_failures then
    fail "failure counter %d but %d failed entries" t.c_failures !failures;
  if !cancellations <> t.c_cancelled then
    fail "cancellation counter %d but %d cancelled entries" t.c_cancelled !cancellations;
  let rej = t.c_rej_queue in
  if !rejections <> rej then fail "rejection counter %d but %d rejected entries" rej !rejections;
  if t.c_accepted + rej <> t.next_id then
    fail "accepted %d + rejected %d <> %d submissions" t.c_accepted rej t.next_id;
  (* per-tenant counters must sum to the global ones *)
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 (lanes_in_order t) in
  if sum (fun l -> l.a_accepted) <> t.c_accepted then fail "per-tenant accepted sum mismatch";
  if sum (fun l -> l.a_completions) <> t.c_completions then
    fail "per-tenant completion sum mismatch";
  if sum (fun l -> l.a_rej_queue) <> rej then fail "per-tenant rejection sum mismatch";
  match !problem with None -> Ok () | Some m -> Error m

let quota t =
  match max_lane_quota (lanes_in_order t) with
  | 0 -> Pool.quota t.epoch.pool
  | k -> Some k

let quota_trajectory t =
  let all =
    List.concat_map
      (fun lane -> match lane.l_qctl with Some qc -> Quota_ctl.trajectory qc | None -> [])
      (lanes_in_order t)
  in
  List.stable_sort (fun (s1, _) (s2, _) -> compare s1 s2) all

let pool_counters t = Pool.counters t.epoch.pool

(* ------------------------------------------------------------------ *)
(* Telemetry exposition                                                 *)
(* ------------------------------------------------------------------ *)

let registry t = t.registry

let headroom t = t.headroom

let counter_samples t =
  let mk name v = { Registry.name; help = ""; stable = true; value = Registry.Counter_v v } in
  [
    mk "accepted" t.c_accepted;
    mk "rejected_queue_full" t.c_rej_queue;
    mk "completions" t.c_completions;
    mk "failures" t.c_failures;
    mk "cancelled" t.c_cancelled;
    mk "retries" t.c_retries;
    mk "timeouts" t.c_timeouts;
    mk "wedges" t.c_wedges;
    mk "quarantines" t.c_quarantines;
    mk "respawns" t.c_respawns;
    mk "duplicate_acks" t.c_dup_acks;
  ]

let metrics_snapshot ?stable_only t = Registry.snapshot ?stable_only t.registry

let metrics_text t = Openmetrics.render (Registry.snapshot t.registry)

let shutdown ?(reap = false) t =
  let stop ep ~join =
    Atomic.set ep.retired true;
    if join then begin
      (match ep.exec with
       | Some d ->
         Domain.join d;
         ep.exec <- None
       | None -> ());
      Pool.shutdown ep.pool
    end
    else Pool.kill ep.pool
  in
  stop t.epoch ~join:true;
  List.iter (fun ep -> stop ep ~join:reap) t.retired_epochs;
  if reap then t.retired_epochs <- []
