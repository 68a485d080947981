(* The fib and psort workloads: fork-join programs on the native pool at
   p = 2 (the caller plus one worker domain), WS and DFD interleaved op
   by op, and the runtime layer's figures for the traced mode. *)

module Pool = Dfd_runtime.Pool
module Psort = Dfd_runtime.Psort
module Prng = Dfd_structures.Prng
module Stats = Dfd_structures.Stats
module Registry = Dfd_obs.Registry
open Measure

let fib_n = 27

let sort_n = 400_000

let sort_cutoff = 512

let policies = [ ("ws", Pool.Work_stealing); ("dfd", Pool.Dfdeques { quota = 32_768 }) ]

let rec fib n =
  if n < 2 then n
  else
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b

(* The sequential reference: the check of every fib op, and the base the
   fork/join cost is measured against. *)
let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

(* Order-independent checksum of a multiset of ints. *)
let checksum a = Array.fold_left (fun acc x -> acc + ((x * 0x2545F491) lxor (x lsr 17))) 0 a

(* One op of a workload on a given pool. *)
type maker = Pool.t -> wrap -> (unit -> unit) * (unit -> bool)

let fib_maker () : maker =
  let expect = sfib fib_n in
  fun pool wrap ->
    let r = ref (-1) in
    ( (fun () -> wrap "runtime.pool_run" (fun () -> r := Pool.run pool (fun () -> fib fib_n))),
      fun () -> !r = expect )

(* Every op sorts a fresh copy of one seeded array. *)
let psort_maker ~seed () : maker =
  let rng = Prng.create seed in
  let input = Array.init sort_n (fun _ -> Prng.int rng 1_000_000_000) in
  let sum = checksum input in
  fun pool wrap ->
    let a = Array.copy input in
    ( (fun () ->
          wrap "runtime.pool_run" (fun () ->
              Pool.run pool (fun () -> Psort.sort ~cutoff:sort_cutoff ~cmp:Int.compare a))),
      fun () -> Psort.sorted ~cmp:Int.compare a && checksum a = sum )

let create_pools ~domains () =
  List.map (fun (tag, policy) -> (tag, Pool.create ~domains policy)) policies

let shutdown pools = List.iter (fun (_, pool) -> Pool.shutdown pool) pools

let ops_of pools (make : maker) : ops = List.map (fun (tag, pool) -> (tag, make pool)) pools

(* One untimed op on [pool]. *)
let warm make pool =
  let run, check = make pool no_wrap in
  run ();
  if not (check ()) then failwith "wrong result in warm-up"

(* One set-up round: the input, and fresh p = 2 pools, each warmed up
   with one untimed op. *)
let setup ~workload ~seed () =
  let make = if workload = "fib" then fib_maker () else psort_maker ~seed () in
  let pools = create_pools ~domains:1 () in
  List.iter (fun (_, pool) -> warm make pool) pools;
  (pools, make)

(* A fresh warmed-up pool for [f], shut down when [f] returns. *)
let with_pool ?registry ~domains policy make f =
  let pool = Pool.create ?registry ~domains policy in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       warm make pool;
       f pool)

(* The runtime layer from the counters of the traced loop's pools. *)
let set_counter_metrics ~before ~ops tag pool =
  let c0 : Pool.counters = before and c = Pool.counters pool in
  let tasks = c.tasks_run - c0.tasks_run and steals = c.steals - c0.steals in
  let per x = fratio x ops in
  set ("runtime.tasks_per_op." ^ tag) (per tasks);
  set ("runtime.steals_per_op." ^ tag) (per steals);
  set ("runtime.steal_success_ratio." ^ tag)
    (fratio steals (steals + c.steal_failures - c0.steal_failures));
  set ("runtime.parks_per_op." ^ tag) (per (c.parks - c0.parks));
  set ("runtime.sync_ops_per_task." ^ tag) (fratio (c.sync_ops - c0.sync_ops) tasks);
  if tag = "dfd" then begin
    set "runtime.quota_giveups_per_op.dfd" (per (c.quota_giveups - c0.quota_giveups));
    set "runtime.r_churn_per_op.dfd"
      (per (c.r_inserts + c.r_removes - c0.r_inserts - c0.r_removes));
    set "runtime.rank_error_p90.dfd"
      (Option.value ~default:0.0 (Stats.Histogram.quantile (Pool.rank_error pool) 0.9))
  end

(* Fixed-count comparisons on pools of their own, one policy at a time,
   so that at most one worker domain is alive: p = 1 against p = 2 for
   the speedup, and for fib the sequential reference (fork/join cost)
   and a pool with an enabled registry (observability cost). *)
let comparisons ~workload make =
  let fib = workload = "fib" in
  let expect = sfib fib_n in
  let seq _ =
    let r = ref (-1) in
    ((fun () -> r := sfib fib_n), fun () -> !r = expect)
  in
  let reps = 10 in
  let speedup =
    List.concat_map
      (fun (tag, policy) ->
         with_pool ~domains:1 policy make (fun p2 ->
             with_pool ~domains:0 policy make (fun p1 ->
                 let before = (Pool.counters p1).tasks_run in
                 let samples =
                   repeat_ops ~reps
                     ([ (tag ^ ".p2", make p2); (tag ^ ".p1", make p1) ]
                      @ if fib then [ (tag ^ ".seq", seq) ] else [])
                 in
                 let med t = median (List.assoc (tag ^ t) samples).Samples.ms in
                 set ("runtime.speedup_p2." ^ tag) (med ".p1" /. med ".p2");
                 if fib then begin
                   let tasks = fratio ((Pool.counters p1).tasks_run - before) reps in
                   set ("runtime.fork_join_ns." ^ tag) ((med ".p1" -. med ".seq") *. 1e6 /. tasks)
                 end;
                 samples)))
      policies
  in
  let obs =
    if not fib then []
    else begin
      (* alternating blocks of 3 ops, each on a fresh pool *)
      let dfd = List.assoc "dfd" policies and registry = Registry.create () in
      let plain = Samples.create () and reg = Samples.create () in
      for _ = 1 to 5 do
        List.iter
          (fun (registry, s) ->
             with_pool ?registry ~domains:1 dfd make (fun pool ->
                 for _ = 1 to 3 do
                   Samples.record s (make pool no_wrap)
                 done))
          [ (None, plain); (Some registry, reg) ]
      done;
      set "obs.registry_overhead_ratio" (median reg.ms /. median plain.ms);
      [ ("dfd", plain); ("dfd.registry", reg) ]
    end
  in
  speedup @ obs

let traced ~workload ~rng ~seconds (pools, make) =
  let before = List.map (fun (tag, pool) -> (tag, Pool.counters pool)) pools in
  let traced, plain, overhead =
    traced_interleaved ~rng ~seconds:(seconds /. 2.0) (ops_of pools make)
  in
  set ("bench.trace_overhead_ratio." ^ workload) overhead;
  List.iter
    (fun (tag, pool) ->
       let s = List.assoc tag traced in
       set_op_metrics tag s;
       (* the untraced half of the loop ran as many ops on the pool *)
       set_counter_metrics ~before:(List.assoc tag before) ~ops:(2 * s.Samples.attempted) tag pool)
    pools;
  shutdown pools;
  let extra = comparisons ~workload make in
  Structures_probe.run ();
  traced @ plain @ extra

let run ~workload ~seed ~seconds ~trace =
  let setup () = timed_setup (setup ~workload ~seed) in
  let live = ref (setup ()) in
  let rng = Prng.create seed in
  if trace then totals (traced ~workload ~rng ~seconds !live)
  else begin
    let ops =
      List.map
        (fun (tag, _) ->
           ( tag,
             fun wrap ->
               let pools, make = !live in
               make (List.assoc tag pools) wrap ))
        policies
    in
    (* a pool instance can stay faster or slower than another for its
       whole life, so the pools are replaced by a fresh set-up round
       every 4 rounds *)
    let renew () =
      shutdown (fst !live);
      live := setup ()
    in
    let samples = interleaved ~renew:(4, renew) ~reference:Reference.fixed_ms ~rng ~seconds ops in
    shutdown (fst !live);
    List.iter (fun (tag, s) -> set_op_metrics tag s) samples;
    totals samples
  end
