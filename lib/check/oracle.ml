(* The paper's theorems packaged as reusable test oracles, plus a
   differential oracle spanning the serial analysis, all four simulated
   policies, and the native pool.

   These are deliberately thin: each oracle states one checkable claim
   and returns a [result] (or a report record) instead of asserting, so
   every suite — unit, property and the schedule explorer — can share
   the same checks and render its own diagnostics. *)

module Action = Dfd_dag.Action
module Prog = Dfd_dag.Prog
module Analysis = Dfd_dag.Analysis
module Config = Dfd_machine.Config
module Engine = Dfdeques_core.Engine
module Pool = Dfd_runtime.Pool

(* ------------------------------------------------------------------ *)
(* Lemma 3.1: R-order == 1DF priority order                            *)
(* ------------------------------------------------------------------ *)

(* The policy's own structural check (flattened R-list compared against
   the serial 1DF priority order) runs after every timestep; a violation
   raises [Failure].  Only meaningful for pure nested-parallel programs
   (no mutexes/condvars), as the engine documents. *)
let lemma31 ?(p = 4) ?(k = 128) ?(seed = 0) prog =
  let cfg = Config.analysis ~p ~mem_threshold:(Some k) ~seed () in
  match Engine.run ~sched:`Dfdeques ~check_invariants:true cfg prog with
  | (_ : Engine.result) -> Ok ()
  | exception Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Theorem 4.4: space bound with measured constants                    *)
(* ------------------------------------------------------------------ *)

type thm44_report = {
  p : int;
  k : int;
  c : int;  (* the constant hiding in the O(.) *)
  s1 : int;
  depth : int;
  heap_peak : int;
  bound : int;  (* S1 + c * min(K, S1) * p * D *)
  ok : bool;
}

let thm44 ?(c = Dfd_obs.Headroom.default_c) ?(seed = 0) ~p ~k prog =
  let s = Analysis.analyze prog in
  let cfg = Config.analysis ~p ~mem_threshold:(Some k) ~seed () in
  let r = Engine.run ~sched:`Dfdeques cfg prog in
  let s1 = s.Analysis.serial_space in
  let depth = s.Analysis.depth in
  let bound = Dfd_obs.Headroom.thm44_bound ~c ~s1 ~k ~p ~depth in
  { p; k; c; s1; depth; heap_peak = r.Engine.heap_peak; bound; ok = r.Engine.heap_peak <= bound }

let thm44_result r =
  if r.ok then Ok ()
  else
    Error
      (Printf.sprintf
         "Theorem 4.4 violated: peak %d > bound %d (S1=%d + %d*min(K=%d,S1)*p=%d*D=%d)"
         r.heap_peak r.bound r.s1 r.c r.k r.p r.depth)

(* ------------------------------------------------------------------ *)
(* Space accounting: engine counters vs the executed action stream     *)
(* ------------------------------------------------------------------ *)

(* Recompute the heap trajectory independently from the engine's
   [observer] stream (every executed action, including dummy threads and
   split big allocations) and compare peak / final / gross totals with
   the engine's own accounting. *)
let space_accounting ?(sched = `Dfdeques) cfg prog =
  let cur = ref 0 in
  let peak = ref 0 in
  let total = ref 0 in
  let observer ~now:_ ~proc:_ _thread a =
    cur := !cur + Action.alloc_bytes a - Action.free_bytes a;
    total := !total + Action.alloc_bytes a;
    if !cur > !peak then peak := !cur
  in
  let r = Engine.run ~sched ~observer cfg prog in
  let fail what engine recomputed =
    Error
      (Printf.sprintf "%s accounting mismatch under %s: engine=%d, action stream=%d"
         what (Engine.sched_name sched) engine recomputed)
  in
  if r.Engine.heap_peak <> !peak then fail "heap-peak" r.Engine.heap_peak !peak
  else if r.Engine.final_heap <> !cur then fail "final-heap" r.Engine.final_heap !cur
  else if r.Engine.total_alloc <> !total then fail "total-alloc" r.Engine.total_alloc !total
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Differential oracle: serial 1DF vs simulators vs the native pool    *)
(* ------------------------------------------------------------------ *)

(* Side-effect totals of a program execution, accumulated atomically so
   the native pool's parallel run can share the accumulation code. *)
type totals = {
  t_work : int Atomic.t;
  t_alloc : int Atomic.t;
  t_free : int Atomic.t;
  t_touch : int Atomic.t;
}

let mk_totals () =
  { t_work = Atomic.make 0; t_alloc = Atomic.make 0; t_free = Atomic.make 0; t_touch = Atomic.make 0 }

let add a n = ignore (Atomic.fetch_and_add a n)

let account ?(alloc_hint = false) tot (a : Action.t) =
  match a with
  | Action.Work n -> add tot.t_work n
  | Action.Touch addrs -> add tot.t_touch (Array.length addrs)
  | Action.Alloc n ->
    add tot.t_alloc n;
    if alloc_hint then Pool.alloc_hint n
  | Action.Free n -> add tot.t_free n
  | Action.Dummy -> ()
  | Action.Lock _ | Action.Unlock _ | Action.Wait _ | Action.Signal _ | Action.Broadcast _ ->
    failwith "Oracle.differential: synchronisation action in nested-parallel program"

let totals_tuple t =
  (Atomic.get t.t_work, Atomic.get t.t_alloc, Atomic.get t.t_free, Atomic.get t.t_touch)

(* Interpret a Prog.t on the native pool with real fork-join.  [exec_upto]
   runs one thread's stream until its first *unmatched* Join, which by
   LIFO nesting belongs to the nearest enclosing fork; [Fork] therefore
   runs the child in parallel with exactly the parent segment up to that
   join, mirroring [Prog.par]. *)
let rec exec_upto tot t =
  match t with
  | Prog.Nil -> None
  | Prog.Act (a, rest) ->
    account ~alloc_hint:true tot a;
    exec_upto tot rest
  | Prog.Join rest -> Some rest
  | Prog.Fork (child, rest) -> (
    (* the cost model charges the fork itself as one unit action in the
       forking thread (Analysis.walk does the same in the reference) *)
    add tot.t_work 1;
    let (), cont =
      Pool.fork_join
        (fun () -> exec_thread tot (child ()))
        (fun () -> exec_upto tot rest)
    in
    match cont with
    | Some after -> exec_upto tot after
    | None -> failwith "Oracle.differential: thread terminated with unjoined child")

and exec_thread tot t =
  match exec_upto tot t with
  | None -> ()
  | Some _ -> failwith "Oracle.differential: join without matching fork"

let pool_totals ~domains ~policy prog =
  let tot = mk_totals () in
  let pool = Pool.create ~domains policy in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> Pool.run pool (fun () -> exec_thread tot prog));
  (tot, Pool.For_testing.queued pool)

let serial_totals prog =
  let tot = mk_totals () in
  Analysis.iter_serial (account ~alloc_hint:false tot) prog;
  tot

let sim_scheds : Engine.sched list = [ `Ws; `Dfdeques; `Adf; `Fifo ]

let differential ?(p = 3) ?(seed = 0) ?(k = 512) ?(quota = 4096) ?(pool_domains = 2) prog =
  let s = Analysis.analyze prog in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  (* 1. every simulated policy under infinite K executes exactly the
     program's dag: same work, same gross allocation, same final heap *)
  let sim_check sched =
    let cfg = Config.analysis ~p ~mem_threshold:None ~seed () in
    let r = Engine.run ~sched cfg prog in
    if r.Engine.work <> s.Analysis.work then
      err "%s: work %d <> serial %d" (Engine.sched_name sched) r.Engine.work s.Analysis.work
    else if r.Engine.total_alloc <> s.Analysis.total_alloc then
      err "%s: total_alloc %d <> serial %d" (Engine.sched_name sched) r.Engine.total_alloc
        s.Analysis.total_alloc
    else if r.Engine.final_heap <> s.Analysis.final_heap then
      err "%s: final_heap %d <> serial %d" (Engine.sched_name sched) r.Engine.final_heap
        s.Analysis.final_heap
    else Ok ()
  in
  let rec sims = function
    | [] -> Ok ()
    | sc :: rest ->
      let* () = sim_check sc in
      sims rest
  in
  let* () = sims sim_scheds in
  (* 2. finite-K DFDeques: memory accounting consistent with its own
     executed action stream (dummies and split allocations included) *)
  let* () =
    space_accounting ~sched:`Dfdeques (Config.analysis ~p ~mem_threshold:(Some k) ~seed ()) prog
  in
  (* 3. the native pool computes the same side-effect totals as the
     serial 1DF reference, under both deque disciplines, without leaking
     tasks *)
  let reference = totals_tuple (serial_totals prog) in
  let pool_check policy name =
    let tot, leaked = pool_totals ~domains:pool_domains ~policy prog in
    if leaked <> 0 then err "pool %s: %d task(s) leaked" name leaked
    else if totals_tuple tot <> reference then
      let w, a, f, t = totals_tuple tot in
      let w', a', f', t' = reference in
      err "pool %s: totals (work=%d alloc=%d free=%d touch=%d) <> serial (work=%d alloc=%d free=%d touch=%d)"
        name w a f t w' a' f' t'
    else Ok ()
  in
  let* () = pool_check Pool.Work_stealing "ws" in
  pool_check (Pool.Dfdeques { quota }) "dfdeques"
