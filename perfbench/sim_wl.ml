(* The sim workload: one op is one pass of the costed simulator (p = 8,
   K = 50 000 bytes) over the seven Table-1 programs, WS and DFD
   interleaved.  It runs on one thread and never spawns a domain: OCaml 5
   minor collections stop every live domain, so an idle one would add
   noise to a single-threaded workload. *)

module Engine = Dfdeques_core.Engine
module Config = Dfd_machine.Config
module Workload = Dfd_benchmarks.Workload
module Registry = Dfd_benchmarks.Registry
module Tracer = Dfd_trace.Tracer
module Prng = Dfd_structures.Prng
open Measure

let scheds = [ ("ws", `Ws); ("dfd", `Dfdeques) ]

(* What each op must reproduce, per program: simulated time, work and
   heap peak. *)
type outcome = (string * (int * int * int)) list

type state = {
  progs : (string * Dfd_dag.Prog.t) list;
  cfg : Config.t;
  reference : (string * outcome) list;  (** per policy, from the warm-up pass. *)
}

(* Per-policy tallies of the ops run, for the traced table. *)
type tally = {
  mutable ops : int;
  mutable actions : int;
  mutable engine_s : float;
  mutable cache_accesses : int;
  mutable steal_attempts : int;
  run_ms : (string, float) Hashtbl.t;
}

let pass ?tracer ?(wrap = no_wrap) ?tally ~sched st =
  Option.iter Tracer.clear tracer;
  List.map
    (fun (name, prog) ->
       let r = ref None in
       wrap ("core.run." ^ name) (fun () ->
           let res, dt = timed (fun () -> Engine.run ?tracer ~sched st.cfg prog) in
           r := Some res;
           match tally with
           | None -> ()
           | Some t ->
             t.actions <- t.actions + res.Engine.work;
             t.engine_s <- t.engine_s +. dt;
             t.cache_accesses <- t.cache_accesses + res.Engine.cache_accesses;
             t.steal_attempts <- t.steal_attempts + res.Engine.steal_attempts;
             Hashtbl.add t.run_ms name (dt *. 1000.0));
       let res = Option.get !r in
       (name, (res.Engine.time, res.Engine.work, res.Engine.heap_peak)))
    st.progs

let build_progs () =
  List.map (fun w -> (w.Workload.name, w.Workload.prog ())) (Registry.table_benchmarks Workload.Fine)

(* One set-up round: the programs are built here, so an op is pure
   simulation, and one warm-up pass per policy gives the reference. *)
let setup ~seed () =
  let st =
    {
      progs = build_progs ();
      cfg = Config.costed ~p:8 ~mem_threshold:(Some 50_000) ~seed ();
      reference = [];
    }
  in
  { st with reference = List.map (fun (tag, sched) -> (tag, pass ~sched st)) scheds }

let new_tally () =
  {
    ops = 0;
    actions = 0;
    engine_s = 0.0;
    cache_accesses = 0;
    steal_attempts = 0;
    run_ms = Hashtbl.create 8;
  }

(* Every op is checked against the reference of its policy. *)
let ops_of ?tracer ?tallies st : ops =
  List.map
    (fun (tag, sched) ->
       ( tag,
         fun wrap ->
           let tally = Option.map (List.assoc tag) tallies in
           Option.iter (fun t -> t.ops <- t.ops + 1) tally;
           let got = ref [] in
           ( (fun () -> got := pass ?tracer ~wrap ?tally ~sched st),
             fun () -> !got = List.assoc tag st.reference ) ))
    scheds

let traced ~rng ~seconds st =
  let tallies = List.map (fun (tag, _) -> (tag, new_tally ())) scheds in
  let traced, plain, overhead =
    traced_interleaved ~rng ~seconds:(seconds /. 2.0) (ops_of ~tallies st)
  in
  set "bench.trace_overhead_ratio.sim" overhead;
  List.iter
    (fun (tag, s) ->
       set_op_metrics tag s;
       let t = List.assoc tag tallies in
       set ("core.actions_per_s." ^ tag) (float_of_int t.actions /. t.engine_s);
       set ("core.cache_accesses_per_op." ^ tag) (fratio t.cache_accesses t.ops);
       set ("core.steal_attempts_per_op." ^ tag) (fratio t.steal_attempts t.ops);
       List.iter
         (fun (name, _) ->
            set (Printf.sprintf "core.run_ms.%s.%s" name tag) (median (Hashtbl.find_all t.run_ms name)))
         st.progs)
    traced;
  set "dag.prog_build_ms" (median (List.init 5 (fun _ -> snd (timed build_progs) *. 1000.0)));
  (* the engine's own event tracer: one ring, cleared before each pass *)
  let pair =
    repeat_ops ~reps:5
      [
        ("dfd", List.assoc "dfd" (ops_of st));
        ("dfd.tracer", List.assoc "dfd" (ops_of ~tracer:(Tracer.create ()) st));
      ]
  in
  set "trace.tracer_overhead_ratio"
    (median (List.assoc "dfd.tracer" pair).Samples.ms /. median (List.assoc "dfd" pair).Samples.ms);
  traced @ plain @ pair

let run ~seed ~seconds ~trace =
  let st = timed_setup (setup ~seed) in
  let rng = Prng.create seed in
  if trace then totals (traced ~rng ~seconds st)
  else begin
    (* set-up is timed again every 4 rounds and its state dropped *)
    let renew () = ignore (timed_setup (setup ~seed)) in
    let samples =
      interleaved ~renew:(4, renew) ~reference:Reference.kernel_ms ~rng ~seconds (ops_of st)
    in
    List.iter (fun (tag, s) -> set_op_metrics tag s) samples;
    totals samples
  end
