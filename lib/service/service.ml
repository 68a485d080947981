module Pool = Dfd_runtime.Pool
module Tracer = Dfd_trace.Tracer
module Registry = Dfd_obs.Registry
module Openmetrics = Dfd_obs.Openmetrics
module Headroom = Dfd_obs.Headroom
module Stats = Dfd_structures.Stats

type reject_reason = Queue_full

let reject_reason_name Queue_full = "queue_full"

type outcome = Completed | Failed of string | Rejected of reject_reason

type config = {
  seed : int;
  tenants : Tenant.t list;
  max_attempts : int;
  default_deadline : float option;
  wedge_grace : float;
  domains : int;
  max_respawns : int;
  on_pool_retired : (in_flight:int option -> unit) option;
}

let default_config =
  {
    seed = 0;
    tenants = [ Tenant.default ];
    max_attempts = 4;
    default_deadline = None;
    wedge_grace = 5.0;
    domains = 2;
    max_respawns = 8;
    on_pool_retired = None;
  }

exception Supervisor_giveup of string

(* Exception classes for which a retry is guaranteed to fail the same
   way, so attempting one only burns the budget: the deterministic
   programming-bug classes, and a give-up that escaped into a job's work
   closure (nested service, callback). *)
let is_terminal = function
  | Invalid_argument _ | Assert_failure _ | Match_failure _ | Undefined_recursive_module _
  | Supervisor_giveup _ ->
    true
  | _ -> false

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
  submitted_at : int;
  on_done : (outcome -> unit) option;
}

type exec_result =
  | R_done
  | R_timeout  (** the driver cancelled the attempt past its deadline. *)
  | R_exn of { msg : string; retryable : bool }
      (** [retryable] is classified at the raise site ({!is_terminal}
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
        match Pool.run ep.pool job.work with
        | () -> R_done
        | exception Pool.Cancelled -> R_timeout
        | exception e ->
          R_exn { msg = Printexc.to_string e; retryable = not (is_terminal e) }
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
  retries : int;
  timeouts : int;
  wedges : int;
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
  ts_rejected_queue_full : int;
  ts_first_shed : int option;
  ts_peak_depth : int;
  ts_latency : Stats.Histogram.t;
}

(* One admission lane's bookkeeping; the queue itself lives in the
   shared Fair_queue. *)
type lane = {
  tn : Tenant.t;
  lat : Stats.Histogram.t;
  mutable in_flight : int;  (* 0 or 1 *)
  mutable a_accepted : int;
  mutable a_completions : int;
  mutable a_failures : int;
  mutable a_rej_queue : int;
  mutable a_first_shed : int option;
}

type t = {
  cfg : config;
  policy : Pool.policy;
  registry : Registry.t;  (** live telemetry; shared with every pool incarnation. *)
  headroom : Headroom.t;  (** Theorem-4.4 gauges over the service's pool. *)
  flight_dir : string option;  (** where wedge/timeout/give-up dumps land. *)
  mutable epoch : epoch;
  mutable retired_epochs : epoch list;
  mutable clock : int;
  queue : job Fair_queue.t;  (** per-tenant bounded lanes, DRR dispatch. *)
  lanes : (string, lane) Hashtbl.t;
  lane_order : string list;  (** registration (= DRR) order. *)
  slots : (int, ledger_slot) Hashtbl.t;
  mutable next_id : int;
  (* global counters; the admission and outcome totals are sums over the
     lanes ({!total}) *)
  mutable c_retries : int;
  mutable c_timeouts : int;
  mutable c_wedges : int;
  mutable c_respawns : int;
  mutable c_dup_acks : int;
}

let lane_of t name =
  match Hashtbl.find_opt t.lanes name with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Service: unknown tenant %S" name)

let lanes_in_order t = List.map (fun n -> Hashtbl.find t.lanes n) t.lane_order

(* A global count: one lane field summed over the lanes. *)
let total t f = List.fold_left (fun acc l -> acc + f l) 0 (lanes_in_order t)

(* ------------------------------------------------------------------ *)
(* Pool incarnations                                                   *)
(* ------------------------------------------------------------------ *)

let spawn_epoch ~domains ~policy ~registry =
  let domains = max 0 domains in
  (* each incarnation gets a fresh flight ring (forensics belong to one
     pool's lifetime; read back through [Pool.flight]) but shares the
     registry, whose upsert registration keeps the dfd_pool_* series
     continuous across respawns.  One lane per worker, the caller slot
     included. *)
  let flight = Tracer.create ~capacity:256 ~lanes:(domains + 1) () in
  let pool = Pool.create ~domains ~registry ~flight policy in
  let ep = { pool; cell = Atomic.make Idle; retired = Atomic.make false; exec = None } in
  ep.exec <- Some (Domain.spawn (fun () -> executor_loop ep));
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
  c "dfd_service_accepted_total" "Submissions admitted to a lane." (fun () ->
      total t (fun l -> l.a_accepted));
  c "dfd_service_rejected_total{reason=\"queue_full\"}" "Submissions shed, by reason." (fun () ->
      total t (fun l -> l.a_rej_queue));
  c "dfd_service_completions_total" "Jobs acknowledged Completed." (fun () ->
      total t (fun l -> l.a_completions));
  c "dfd_service_failures_total" "Jobs acknowledged Failed (retry budget exhausted)." (fun () ->
      total t (fun l -> l.a_failures));
  c "dfd_service_retries_total" "Failed attempts sent back to their lane." (fun () -> t.c_retries);
  c "dfd_service_timeouts_total" "Attempts that hit their deadline." (fun () -> t.c_timeouts);
  c "dfd_service_wedges_total" "Pool incarnations declared wedged." (fun () -> t.c_wedges);
  c "dfd_service_respawns_total" "Fresh pool incarnations after a wedge." (fun () -> t.c_respawns);
  c "dfd_service_duplicate_acks_total" "Terminal acks refused (0 in a correct run)." (fun () ->
      t.c_dup_acks);
  g "dfd_service_queue_depth" "Jobs queued across all lanes, not yet dispatched." (fun () ->
      Fair_queue.total t.queue);
  g "dfd_service_clock" "The driver's logical clock (steps)." (fun () -> t.clock);
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
           Fair_queue.depth t.queue name))
    t.lane_order

let create ?registry ?flight_dir ?headroom_s1 ?headroom_depth
    ?(config = default_config) policy =
  Tenant.validate_all config.tenants;
  if config.wedge_grace <= 0.0 then invalid_arg "Service: wedge_grace must be positive";
  if config.max_respawns < 0 then invalid_arg "Service: max_respawns must be >= 0";
  if config.max_attempts < 1 then invalid_arg "Service: max_attempts must be >= 1";
  let registry = match registry with Some r -> r | None -> Registry.create () in
  let queue = Fair_queue.create () in
  let lanes = Hashtbl.create 8 in
  let lane_order = List.map (fun (tn : Tenant.t) -> tn.name) config.tenants in
  List.iter
    (fun (tn : Tenant.t) ->
       Fair_queue.add_tenant queue ~name:tn.name ~weight:tn.weight;
       Hashtbl.replace lanes tn.name
         {
           tn;
           lat = Stats.Histogram.create ();
           in_flight = 0;
           a_accepted = 0;
           a_completions = 0;
           a_failures = 0;
           a_rej_queue = 0;
           a_first_shed = None;
         })
    config.tenants;
  let k = match policy with Pool.Dfdeques { quota } -> quota | Pool.Work_stealing -> 0 in
  let headroom =
    Headroom.create ~registry ~policy:"service" ?s1:headroom_s1 ?depth:headroom_depth
      ~p:(max 0 config.domains + 1) ~k ()
  in
  let t =
    {
      cfg = config;
      policy;
      registry;
      headroom;
      flight_dir;
      epoch = spawn_epoch ~domains:config.domains ~policy ~registry;
      retired_epochs = [];
      clock = 0;
      queue;
      lanes;
      lane_order;
      slots = Hashtbl.create 64;
      next_id = 0;
      c_retries = 0;
      c_timeouts = 0;
      c_wedges = 0;
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
   wins and fires the caller's [on_done]; any further one is counted as a
   duplicate and refused, so [on_done] runs at most once per job. *)
let ack t (s : ledger_slot) ~on_done out =
  s.l_acks <- s.l_acks + 1;
  match s.l_outcome with
  | Some _ -> t.c_dup_acks <- t.c_dup_acks + 1
  | None ->
    s.l_outcome <- Some out;
    let lane = lane_of t s.l_tenant in
    (match out with
     | Completed -> lane.a_completions <- lane.a_completions + 1
     | Failed _ -> lane.a_failures <- lane.a_failures + 1
     | Rejected _ -> ());
    Option.iter (fun f -> f out) on_done

(* Terminal outcome for an admitted job: latency, then the ledger ack. *)
let settle t (job : job) (s : ledger_slot) out =
  (match out with
   | Completed ->
     Stats.Histogram.add (lane_of t job.tenant).lat (float_of_int (t.clock - job.submitted_at))
   | _ -> ());
  ack t s ~on_done:job.on_done out

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* The lane bound is the one admission check.  The load counts the
   in-flight attempt, which a failure sends back into the lane, so a
   retry can never overrun the bound. *)
let submit t ?(tenant = "default") ?(class_ = "default") ?deadline ?on_done work =
  let lane = lane_of t tenant in
  let s = new_slot t ~tenant ~class_ in
  if Fair_queue.depth t.queue tenant + lane.in_flight >= lane.tn.Tenant.queue_bound then begin
    lane.a_rej_queue <- lane.a_rej_queue + 1;
    if lane.a_first_shed = None then lane.a_first_shed <- Some t.clock;
    ack t s ~on_done (Rejected Queue_full);
    Error Queue_full
  end
  else begin
    let deadline = match deadline with Some _ as d -> d | None -> t.cfg.default_deadline in
    Fair_queue.push t.queue ~tenant
      { id = s.l_id; tenant; deadline; work; submitted_at = t.clock; on_done };
    lane.a_accepted <- lane.a_accepted + 1;
    Ok s.l_id
  end

(* ------------------------------------------------------------------ *)
(* Supervision: dispatch, wedge detection, respawn                     *)
(* ------------------------------------------------------------------ *)

(* Block until the executor posts this job's result, watching the pool's
   heartbeat and the attempt's deadline, counted from dispatch; [None] =
   the pool made no progress for [wedge_grace] seconds with the attempt
   still in flight — declared wedged, and the caller replaces the whole
   pool ({!respawn}).  Past the deadline every poll re-asserts
   [Pool.cancel], since a cancel that lands before the executor enters
   [Pool.run] is cleared by the run's entry; a stale one left after the
   attempt posts is cleared by the next run's. *)
let await_result t (job : job) =
  let ep = t.epoch in
  let last_hb = ref (Pool.heartbeat ep.pool) in
  let last_progress = ref (Unix.gettimeofday ()) in
  let due = Option.map (fun d -> !last_progress +. d) job.deadline in
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
      let now = Unix.gettimeofday () in
      if hb <> !last_hb then begin
        last_hb := hb;
        last_progress := now
      end;
      (match due with Some d when now > d -> Pool.cancel ep.pool | _ -> ());
      if now -. !last_progress > t.cfg.wedge_grace then None
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
  t.epoch <- spawn_epoch ~domains:t.cfg.domains ~policy:t.policy ~registry:t.registry

(* Send a failed attempt's job straight back into its lane (at the back,
   or at the [front] for a wedge requeue) while it has attempts left, or
   acknowledge the final failure.  [retryable:false] (a terminal error
   class per {!is_terminal}) fails at once: the remaining budget would be
   burned reaching the same deterministic failure. *)
let fail_path ?(retryable = true) ?(front = false) t (job : job) (s : ledger_slot) msg =
  if retryable && s.l_attempts < t.cfg.max_attempts then begin
    t.c_retries <- t.c_retries + 1;
    (if front then Fair_queue.push_front else Fair_queue.push) t.queue ~tenant:job.tenant job
  end
  else settle t job s (Failed msg)

(* Run one attempt to completion, feeding its allocation delta to the
   headroom gauges. *)
let run_one t (job : job) =
  let s = Hashtbl.find t.slots job.id in
  let lane = lane_of t job.tenant in
  lane.in_flight <- 1;
  s.l_attempts <- s.l_attempts + 1;
  let before = (Pool.counters t.epoch.pool).Pool.alloc_bytes in
  (match Atomic.get t.epoch.cell with
   | Idle -> ()
   | _ -> assert false);
  Atomic.set t.epoch.cell (Assigned job);
  let result = await_result t job in
  (match result with
   | None -> ()
   | Some _ ->
     (* the pool is idle again (the executor posted Finished), so the
        counter sum is exact: the delta is this attempt's allocation *)
     let delta = (Pool.counters t.epoch.pool).Pool.alloc_bytes - before in
     if delta > 0 then Headroom.observe t.headroom ~live_bytes:delta);
  (match result with
   | Some R_done -> settle t job s Completed
   | Some R_timeout ->
     flight_dump t ~reason:"timeout";
     t.c_timeouts <- t.c_timeouts + 1;
     fail_path t job s "deadline exceeded"
   | Some (R_exn { msg; retryable }) -> fail_path ~retryable t job s msg
   | None ->
     (* wedged: respawn the pool, requeue the in-flight job exactly once
        at the front.  The wedged attempt counts against the budget (a
        job that wedges every incarnation must not respawn pools
        forever). *)
     respawn t ~in_flight:(Some job.id);
     s.l_requeues <- s.l_requeues + 1;
     fail_path ~front:true t job s "pool wedged; retry budget exhausted");
  lane.in_flight <- 0

(* ------------------------------------------------------------------ *)
(* The driver clock                                                    *)
(* ------------------------------------------------------------------ *)

let step t =
  t.clock <- t.clock + 1;
  match Fair_queue.pop t.queue with None -> () | Some (_, job) -> run_one t job

let idle t = Fair_queue.total t.queue = 0

let drive ?(max_steps = 10_000) t =
  let n = ref 0 in
  while (not (idle t)) && !n < max_steps do
    step t;
    incr n
  done

let now t = t.clock

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let counters t =
  {
    accepted = total t (fun l -> l.a_accepted);
    coalesced = 0;
    rejected_queue_full = total t (fun l -> l.a_rej_queue);
    rejected_breaker_open = 0;
    rejected_memory_pressure = 0;
    rejected_overloaded = 0;
    completions = total t (fun l -> l.a_completions);
    failures = total t (fun l -> l.a_failures);
    retries = t.c_retries;
    timeouts = t.c_timeouts;
    wedges = t.c_wedges;
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
         ts_rejected_queue_full = lane.a_rej_queue;
         ts_first_shed = lane.a_first_shed;
         ts_peak_depth = Fair_queue.peak_depth t.queue lane.tn.Tenant.name;
         ts_latency = lane.lat;
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
  and rejections = ref 0 in
  for id = 0 to t.next_id - 1 do
    let s = Hashtbl.find t.slots id in
    (match s.l_outcome with
     | None -> fail "job %d has no terminal outcome (lost)" id
     | Some Completed -> incr completions
     | Some (Failed _) -> incr failures
     | Some (Rejected _) -> incr rejections);
    if s.l_acks <> 1 then fail "job %d acknowledged %d times" id s.l_acks
  done;
  let c = counters t in
  if !completions <> c.completions then
    fail "completion counter %d but %d completed entries" c.completions !completions;
  if !failures <> c.failures then
    fail "failure counter %d but %d failed entries" c.failures !failures;
  let rej = c.rejected_queue_full in
  if !rejections <> rej then fail "rejection counter %d but %d rejected entries" rej !rejections;
  if c.accepted + rej <> t.next_id then
    fail "accepted %d + rejected %d <> %d submissions" c.accepted rej t.next_id;
  (* each lane's counts against its own ledger entries *)
  let entries tenant keep =
    Hashtbl.fold (fun _ s n -> if s.l_tenant = tenant && keep s.l_outcome then n + 1 else n) t.slots 0
  in
  let rejected = function Some (Rejected _) -> true | _ -> false in
  List.iter
    (fun lane ->
       let name = lane.tn.Tenant.name in
       List.iter
         (fun (what, counter, keep) ->
            let n = entries name keep in
            if counter <> n then
              fail "tenant %S: %s counter %d but %d ledger entries" name what counter n)
         [
           ("accepted", lane.a_accepted, fun o -> not (rejected o));
           ("completion", lane.a_completions, ( = ) (Some Completed));
           ("failure", lane.a_failures, function Some (Failed _) -> true | _ -> false);
           ("rejection", lane.a_rej_queue, rejected);
         ])
    (lanes_in_order t);
  match !problem with None -> Ok () | Some m -> Error m

(* ------------------------------------------------------------------ *)
(* Telemetry exposition                                                 *)
(* ------------------------------------------------------------------ *)

let registry t = t.registry

let headroom t = t.headroom

let counter_samples t =
  let mk name v = { Registry.name; help = ""; stable = true; value = Registry.Counter_v v } in
  [
    mk "accepted" (total t (fun l -> l.a_accepted));
    mk "rejected_queue_full" (total t (fun l -> l.a_rej_queue));
    mk "completions" (total t (fun l -> l.a_completions));
    mk "failures" (total t (fun l -> l.a_failures));
    mk "retries" t.c_retries;
    mk "timeouts" t.c_timeouts;
    mk "wedges" t.c_wedges;
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
