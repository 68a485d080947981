(* The service workload: one driver thread keeps 12 keyless jobs
   outstanding across three weighted tenants of the multi-tenant front
   door, over a pool with no extra domains (the service's executor domain
   runs every job).  One op is one job, from [Service.submit] until its
   [on_done] fires. *)

module Service = Dfd_service.Service
module Tenant = Dfd_service.Tenant
module Pool = Dfd_runtime.Pool
module Prng = Dfd_structures.Prng
open Measure

let outstanding = 12

let job_fib = 20

let warmup_jobs = 300

(* 12 outstanding jobs fill 12/36 of the lanes, under the ladder's 50%
   Coalesce rung, so nothing may be coalesced or shed. *)
let tenants =
  [|
    Tenant.make ~weight:4 ~queue_bound:16 "gold";
    Tenant.make ~weight:2 ~queue_bound:12 "silver";
    Tenant.make ~weight:1 ~queue_bound:8 "bronze";
  |]

(* One job's timestamps.  The executor domain writes [exec0]/[exec1]
   before it publishes the job's result, and the driver reads them only
   after [on_done], so the service's own hand-off orders the accesses. *)
type job = {
  req : int;
  timed : bool;
  mutable submit0 : float;
  mutable submit1 : float;
  mutable exec0 : float;
  mutable exec1 : float;
  mutable settled : float;
  mutable step0 : float;
  mutable step1 : float;
  mutable result : int;
  mutable completed : bool;
}

type driver = {
  svc : Service.t;
  rng : Prng.t;
  expect : int;
  lane_load : int array;
  mutable traced : bool;  (** jobs stamp their execution on the executor. *)
  mutable timing : bool;  (** jobs submitted from now on are timed. *)
  mutable in_flight : int;
  mutable just_settled : job list;
  mutable done_jobs : job list;  (** timed jobs, settled. *)
  mutable steps : int;
  mutable busy_s : float;  (** driver time in submit, and in step outside jobs. *)
}

let submit d =
  (* a seeded draw among the tenants whose lane has room *)
  let rec pick () =
    let i = Prng.int d.rng (Array.length tenants) in
    if d.lane_load.(i) < tenants.(i).Tenant.queue_bound then i else pick ()
  in
  let i = pick () in
  let j =
    {
      req = Spans.fresh ();
      timed = d.timing;
      submit0 = nan;
      submit1 = nan;
      exec0 = nan;
      exec1 = nan;
      settled = nan;
      step0 = nan;
      step1 = nan;
      result = -1;
      completed = false;
    }
  in
  let work =
    if d.traced then (fun () ->
      j.exec0 <- now ();
      j.result <- Pool_wl.sfib job_fib;
      j.exec1 <- now ())
    else fun () -> j.result <- Pool_wl.sfib job_fib
  in
  let on_done outcome =
    j.settled <- now ();
    j.completed <- outcome = Service.Completed;
    d.lane_load.(i) <- d.lane_load.(i) - 1;
    d.in_flight <- d.in_flight - 1;
    d.just_settled <- j :: d.just_settled
  in
  d.lane_load.(i) <- d.lane_load.(i) + 1;
  d.in_flight <- d.in_flight + 1;
  j.submit0 <- now ();
  ignore (Service.submit d.svc ~tenant:tenants.(i).Tenant.name ~on_done work);
  j.submit1 <- now ();
  d.busy_s <- d.busy_s +. (j.submit1 -. j.submit0)

(* One driver turn: top the client back up to [outstanding] (unless
   draining), then one service step, which runs at most one job. *)
let turn ?(refill = true) d =
  if refill then
    while d.in_flight < outstanding do
      submit d
    done;
  let t0 = now () in
  Service.step d.svc;
  let t1 = now () in
  d.steps <- d.steps + 1;
  let ran = ref 0.0 in
  List.iter
    (fun j ->
       j.step0 <- t0;
       j.step1 <- t1;
       if d.traced then ran := !ran +. (j.exec1 -. j.exec0);
       if j.timed then d.done_jobs <- j :: d.done_jobs)
    d.just_settled;
  d.just_settled <- [];
  d.busy_s <- d.busy_s +. (t1 -. t0 -. !ran)

(* One set-up round: a service for [policy], warmed up with untimed
   jobs. *)
let start ~seed policy =
  let svc =
    Service.create
      ~config:{ Service.default_config with seed; tenants = Array.to_list tenants; domains = 0 }
      policy
  in
  let d =
    {
      svc;
      rng = Prng.create seed;
      expect = Pool_wl.sfib job_fib;
      lane_load = Array.make (Array.length tenants) 0;
      traced = false;
      timing = false;
      in_flight = 0;
      just_settled = [];
      done_jobs = [];
      steps = 0;
      busy_s = 0.0;
    }
  in
  while d.steps < warmup_jobs do
    turn d
  done;
  d

(* Time jobs for [seconds] into [s], then stop submitting and drain.
   Returns the timed jobs, newest first, and the time from the start to
   the last settlement. *)
let measure d (s : Samples.t) ~seconds =
  d.timing <- true;
  d.done_jobs <- [];
  d.steps <- 0;
  d.busy_s <- 0.0;
  let mi0, ma0, w0 = gc_counts () in
  let t0 = now () in
  while now () -. t0 < seconds do
    turn d
  done;
  d.timing <- false;
  while d.in_flight > 0 do
    turn ~refill:false d
  done;
  let t1 = now () in
  let mi1, ma1, w1 = gc_counts () in
  let jobs = d.done_jobs in
  s.ms <- List.map (fun j -> (j.settled -. j.submit0) *. 1000.0) jobs @ s.ms;
  s.ref_ms <- List.map (fun _ -> Reference.fixed_ms ()) jobs @ s.ref_ms;
  s.minor <- s.minor + (mi1 - mi0);
  s.major <- s.major + (ma1 - ma0);
  s.words <- s.words +. (w1 -. w0);
  s.attempted <- s.attempted + List.length jobs;
  s.failed <-
    s.failed + List.length (List.filter (fun j -> not (j.completed && j.result = d.expect)) jobs);
  (jobs, t1 -. t0)

(* Audit a drained service: the ledger balances and nothing was shed or
   coalesced.  A violation counts as one more failed op. *)
let audit d =
  let c = Service.counters d.svc in
  let shed =
    c.rejected_queue_full + c.rejected_breaker_open + c.rejected_memory_pressure
    + c.rejected_overloaded + c.coalesced
  in
  let ledger = Service.verify_ledger d.svc in
  (match ledger with Error e -> Printf.printf "ledger: %s\n" e | Ok () -> ());
  if shed > 0 then Printf.printf "shed or coalesced: %d\n" shed;
  if ledger = Ok () && shed = 0 && Service.idle d.svc then 0 else 1

(* One policy's figures over the run's segments. *)
type tally = {
  plain : Samples.t;
  traced : Samples.t;
  mutable plain_s : float;  (** measured time of the untraced jobs. *)
  mutable traced_s : float;
  mutable steps : int;  (** driver steps while traced. *)
  mutable busy_s : float;  (** driver busy time while traced. *)
  mutable jobs : job list;  (** traced jobs. *)
}

let new_tally () =
  {
    plain = Samples.create ();
    traced = Samples.create ();
    plain_s = 0.0;
    traced_s = 0.0;
    steps = 0;
    busy_s = 0.0;
    jobs = [];
  }

(* A traced job's stamps must all be set and in order, and it must have
   run inside the step that settled it.  The stages are differences of
   consecutive stamps, so in order they tile the latency exactly. *)
let well_stamped j =
  List.for_all Float.is_finite [ j.submit0; j.submit1; j.exec0; j.exec1; j.settled; j.step0; j.step1 ]
  && j.submit0 <= j.submit1 && j.submit1 <= j.exec0 && j.exec0 <= j.exec1 && j.exec1 <= j.settled
  && j.step0 <= j.exec0 && j.exec1 <= j.step1

(* The service layer's split of each traced job's latency: admission
   (submit), lane wait (to the job's start on the executor), execution,
   settlement (to on_done), and the hand-off, the part of wait and
   settle its own step spent outside the job.  The spans: a job span
   holds its submit and its step, and the step holds the execution.
   Returns the number of badly stamped jobs, each a failure. *)
let set_split_metrics tag t =
  let good, bad = List.partition well_stamped t.jobs in
  let us f = List.map (fun j -> f j *. 1e6) good in
  set ("service.admit_us_p50." ^ tag) (median (us (fun j -> j.submit1 -. j.submit0)));
  set ("service.wait_ms_p50." ^ tag) (median (us (fun j -> j.exec0 -. j.submit1)) /. 1000.0);
  set ("service.exec_us_p50." ^ tag) (median (us (fun j -> j.exec1 -. j.exec0)));
  set ("service.settle_us_p50." ^ tag) (median (us (fun j -> j.settled -. j.exec1)));
  set ("service.handoff_us_p50." ^ tag)
    (median (us (fun j -> j.step1 -. j.step0 -. (j.exec1 -. j.exec0))));
  set ("service.steps_per_job." ^ tag) (fratio t.steps t.traced.attempted);
  set ("service.driver_busy_frac." ^ tag) (t.busy_s /. t.traced_s);
  set ("service.jobs_per_s." ^ tag) (float_of_int t.plain.attempted /. t.plain_s);
  Printf.printf "%s: %d traced jobs, %d badly stamped\n" tag (List.length t.jobs)
    (List.length bad);
  List.iter
    (fun j ->
       let op = Spans.fresh () and step = Spans.fresh () in
       Spans.add ~id:op ~req:j.req ("bench.job." ^ tag) j.submit0 j.settled;
       Spans.add ~parent:op ~req:j.req "service.submit" j.submit0 j.submit1;
       Spans.add ~id:step ~parent:op ~req:j.req "service.step" j.step0 j.step1;
       Spans.add ~parent:step ~req:j.req "job.exec" j.exec0 j.exec1)
    good;
  List.length bad

(* A no-op [Pool.run] on an idle pool with no extra domains: the entry
   and exit the executor pays once per job. *)
let run_empty_us policy =
  let pool = Pool.create ~domains:0 policy in
  let n = 2000 in
  let xs =
    List.init 5 (fun _ ->
        snd
          (timed (fun () ->
               for _ = 1 to n do
                 Pool.run pool ignore
               done)))
  in
  Pool.shutdown pool;
  median xs *. 1e6 /. float_of_int n

(* The run is a sequence of rounds of one segment per policy, in a seeded
   order, so both policies see the same spells of machine speed.  Each
   segment starts a fresh service (a timed set-up round), times its jobs
   for [segment_s] (traced: half untraced, then half traced), drains it,
   audits it and shuts it down. *)
let segment_s = 1.0

let run ~seed ~seconds ~trace =
  let rng = Prng.create seed in
  let tallies = List.map (fun (tag, _) -> (tag, new_tally ())) Pool_wl.policies in
  let segment (tag, policy) =
    let t = List.assoc tag tallies in
    let d = timed_setup (fun () -> start ~seed policy) in
    let plain_for = if trace then segment_s /. 2.0 else segment_s in
    let _, dt = measure d t.plain ~seconds:plain_for in
    t.plain_s <- t.plain_s +. dt;
    if trace then begin
      d.traced <- true;
      let jobs, dt = measure d t.traced ~seconds:(segment_s /. 2.0) in
      t.traced_s <- t.traced_s +. dt;
      t.steps <- t.steps + d.steps;
      t.busy_s <- t.busy_s +. d.busy_s;
      t.jobs <- jobs @ t.jobs
    end;
    t.plain.failed <- t.plain.failed + audit d;
    Service.shutdown d.svc
  in
  let deadline = now () +. seconds and rounds = ref 0 in
  while now () < deadline || !rounds < 3 do
    incr rounds;
    List.iter segment (if Prng.bool rng then Pool_wl.policies else List.rev Pool_wl.policies)
  done;
  List.iter
    (fun (tag, policy) ->
       let t = List.assoc tag tallies in
       if not trace then set_op_metrics tag t.plain
       else begin
         set_op_metrics tag t.traced;
         t.traced.failed <- t.traced.failed + set_split_metrics tag t;
         set ("runtime.run_empty_us." ^ tag) (run_empty_us policy)
       end)
    Pool_wl.policies;
  let all f = List.concat_map (fun (_, t) -> (f t).Samples.ms) tallies in
  if trace then
    set "bench.trace_overhead_ratio.service"
      (median (all (fun t -> t.traced)) /. median (all (fun t -> t.plain)));
  totals (List.concat_map (fun (tag, t) -> [ (tag, t.plain); (tag ^ ".traced", t.traced) ]) tallies)
