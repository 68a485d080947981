module Engine = Dfdeques_core.Engine
module Analysis = Dfd_dag.Analysis
module Workload = Dfd_benchmarks.Workload

let upper_table grain =
  let k = 50_000 in
  let p = 8 in
  let rows =
    List.filter_map
      (fun b ->
         let s = Analysis.analyze (b.Workload.prog ()) in
         if s.Analysis.serial_space = 0 then None
         else begin
           let r = Exp_common.run_analysis ~p ~k:(Some k) ~sched:`Dfdeques b in
           let bound =
             Dfd_obs.Headroom.thm44_bound ~c:1 ~s1:s.Analysis.serial_space ~k ~p
               ~depth:s.Analysis.depth
           in
           Some
             [
               b.Workload.name;
               Dfd_structures.Stats.fmt_bytes s.Analysis.serial_space;
               string_of_int s.Analysis.depth;
               Dfd_structures.Stats.fmt_bytes r.Engine.heap_peak;
               Dfd_structures.Stats.fmt_bytes bound;
               Printf.sprintf "%.4f" (float_of_int r.Engine.heap_peak /. float_of_int bound);
             ]
         end)
      (Dfd_benchmarks.Registry.table_benchmarks grain)
  in
  {
    Exp_common.title =
      Format.asprintf
        "Theorem 4.4 check: DFDeques space vs S1 + min(K,S1)*p*D (p=%d, K=%d, %a grain)" p k
        Workload.pp_grain grain;
    paper_ref = "Theorem 4.4";
    header = [ "Benchmark"; "S1"; "D"; "measured"; "bound(c=1)"; "measured/bound" ];
    rows;
    notes = [ "every ratio must be << 1; the bound is loose by design (c = 1)." ];
  }

let lower_measure ?(d = 64) ?(a_bytes = 1024) ~p () =
  let prog = Dfd_benchmarks.Lower_bound.prog ~p ~d ~a_bytes () in
  let s = Analysis.analyze prog in
  let cfg = Dfd_machine.Config.analysis ~p ~mem_threshold:(Some a_bytes) () in
  let r = Engine.run ~sched:`Dfdeques cfg prog in
  (r.Engine.heap_peak, s.Analysis.serial_space)

let lower_table () =
  let d = 64 and a_bytes = 1024 in
  let rows =
    List.map
      (fun p ->
         let measured, s1 = lower_measure ~d ~a_bytes ~p () in
         let apd = a_bytes * p / 2 in
         (* per-instant saturation: p/2 subgraphs x up to d live allocations *)
         [
           string_of_int p;
           Dfd_structures.Stats.fmt_bytes s1;
           Dfd_structures.Stats.fmt_bytes measured;
           Printf.sprintf "%.1f" (float_of_int measured /. float_of_int a_bytes);
           Printf.sprintf "%.2f" (float_of_int measured /. float_of_int apd);
         ])
      [ 2; 4; 8; 16; 32 ]
  in
  {
    Exp_common.title =
      Printf.sprintf
        "Theorem 4.5 check: adversarial dag (Figure 10), d=%d, A=%dB, K=A: space grows with p" d
        a_bytes;
    paper_ref = "Theorem 4.5 / Figure 10 / Corollary 4.6";
    header = [ "p"; "S1"; "measured"; "live A's"; "measured/(A*p/2)" ];
    rows;
    notes =
      [
        "S1 stays one allocation (A bytes) regardless of p, while the measured";
        "space grows with p — the Omega(min(K,S1)*p) per-instant blow-up of Thm 4.5;";
        "the last column staying >= ~1 shows the linear-in-p growth.";
      ];
  }
