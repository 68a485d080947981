(* Tests for the benchmark programs: every benchmark must be a well-formed
   nested-parallel program with the structural properties the paper's
   workloads have (parallelism, allocation balance, granularity knobs), and
   must execute correctly under every scheduler. *)

module Analysis = Dfd_dag.Analysis
module W = Dfd_benchmarks.Workload
module R = Dfd_benchmarks.Registry
module Engine = Dfdeques_core.Engine
module Config = Dfd_machine.Config

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let analyze (b : W.t) = Analysis.analyze (b.W.prog ())

(* ------------------------------------------------------------------ *)
(* Generic structural properties for every benchmark                   *)
(* ------------------------------------------------------------------ *)

let test_all_wellformed () =
  List.iter
    (fun grain ->
       List.iter
         (fun b ->
            let s = analyze b in
            checkb (b.W.name ^ " has work") true (s.Analysis.work > 0);
            checkb (b.W.name ^ " depth positive") true (s.Analysis.depth > 0);
            checkb
              (b.W.name ^ " frees at most what it allocates")
              true
              (s.Analysis.total_free <= s.Analysis.total_alloc))
         (R.all grain))
    [ W.Medium; W.Fine ]

let test_all_parallel_enough () =
  (* every table benchmark must have parallelism W/D >= 10 at fine grain
     (otherwise the 8-processor speedup comparisons are meaningless) *)
  List.iter
    (fun b ->
       let s = analyze b in
       let par = float_of_int s.Analysis.work /. float_of_int s.Analysis.depth in
       if par < 10.0 then
         Alcotest.failf "%s parallelism %.1f < 10 (W=%d D=%d)" b.W.name par s.Analysis.work
           s.Analysis.depth)
    (R.table_benchmarks W.Fine)

let test_fine_has_more_threads () =
  List.iter2
    (fun bm bf ->
       let sm = analyze bm and sf = analyze bf in
       checkb
         (bm.W.name ^ " fine grain creates more threads")
         true
         (sf.Analysis.threads > sm.Analysis.threads))
    (R.table_benchmarks W.Medium) (R.table_benchmarks W.Fine)

let test_deterministic_construction () =
  List.iter
    (fun b ->
       let s1 = analyze b and s2 = analyze b in
       checki (b.W.name ^ " same W") s1.Analysis.work s2.Analysis.work;
       checki (b.W.name ^ " same D") s1.Analysis.depth s2.Analysis.depth;
       checki (b.W.name ^ " same S1") s1.Analysis.serial_space s2.Analysis.serial_space)
    (R.all W.Fine)

let test_registry_lookup () =
  checkb "find is case-insensitive" true
    ((R.find "densemm" W.Fine).W.name = "DenseMM");
  checkb "unknown raises" true
    (try
       ignore (R.find "nosuch" W.Fine);
       false
     with Not_found -> true);
  checki "eleven benchmarks" 11 (List.length R.names)

let test_all_run_under_all_schedulers () =
  (* smoke execution of every benchmark x scheduler in analysis mode
     (smaller variants to keep the suite fast) *)
  let small =
    [
      Dfd_benchmarks.Dense_mm.bench ~n:32 W.Fine;
      Dfd_benchmarks.Sparse_mvm.bench ~rows:300 W.Fine;
      Dfd_benchmarks.Fftw_like.bench ~n:2048 W.Fine;
      Dfd_benchmarks.Volume_render.bench ~vol:16 ~img:16 W.Fine;
      Dfd_benchmarks.Fmm.bench ~levels:3 W.Fine;
      Dfd_benchmarks.Barnes_hut.bench ~bodies:256 W.Fine;
      Dfd_benchmarks.Decision_tree.bench ~instances:2000 W.Fine;
      Dfd_benchmarks.Synthetic.bench ~levels:8 W.Fine;
    ]
  in
  List.iter
    (fun b ->
       let s = analyze b in
       List.iter
         (fun sched ->
            let cfg = Config.analysis ~p:4 ~mem_threshold:(Some 10_000) () in
            let r = Engine.run ~sched cfg (b.W.prog ()) in
            checkb (b.W.name ^ " work conserved") true (r.Engine.work >= s.Analysis.work);
            checki (b.W.name ^ " leak equality") s.Analysis.final_heap r.Engine.final_heap)
         [ `Dfdeques; `Ws; `Adf; `Fifo ])
    small

(* ------------------------------------------------------------------ *)
(* Per-benchmark structural checks                                      *)
(* ------------------------------------------------------------------ *)

let test_dense_mm_shape () =
  let s8 = Analysis.analyze (Dfd_benchmarks.Dense_mm.prog ~n:32 ~leaf:8 ()) in
  let s4 = Analysis.analyze (Dfd_benchmarks.Dense_mm.prog ~n:32 ~leaf:4 ()) in
  (* halving the leaf multiplies thread count by ~8 (3-d recursion) *)
  checkb "8x threads at half leaf" true
    (s4.Analysis.threads > 6 * s8.Analysis.threads);
  (* temporaries balance: no leak *)
  checki "no leak" 0 s8.Analysis.final_heap;
  (* the top temporary dominates S1 *)
  checkb "S1 >= top temp" true (s8.Analysis.serial_space >= 32 * 32 * 8)

let test_dense_mm_rejects_bad_args () =
  Alcotest.check_raises "n < 2*leaf"
    (Invalid_argument "Dense_mm.prog: n must be >= 2*leaf") (fun () ->
        ignore (Dfd_benchmarks.Dense_mm.prog ~n:8 ~leaf:8 ()))

let test_sparse_shape () =
  let s = Analysis.analyze (Dfd_benchmarks.Sparse_mvm.prog ~rows:100 ~nnz_per_row:8 ~block:10 ~seed:1 ()) in
  checki "no heap" 0 s.Analysis.total_alloc;
  checki "10 blocks -> 10 threads" 10 s.Analysis.threads;
  checkb "touches issued" true (s.Analysis.touches > 100 * 8)

let test_fft_shape () =
  let s = Analysis.analyze (Dfd_benchmarks.Fftw_like.prog ~n:1024 ~leaf:64 ()) in
  (* twiddle table allocated and freed *)
  checki "balanced" 0 s.Analysis.final_heap;
  checki "twiddle table" (1024 * 8) s.Analysis.total_alloc;
  (* threads ~ 2*(n/leaf) from the recursion + combine loops *)
  checkb "threads" true (s.Analysis.threads > 16)

let test_fmm_shape () =
  let s = Analysis.analyze (Dfd_benchmarks.Fmm.prog ~levels:3 ~terms:10 ~serial_cutoff:2 ()) in
  (* every expansion allocated in upward is freed in downward *)
  checki "balanced" 0 s.Analysis.final_heap;
  let cells = 1 + 4 + 16 + 64 in
  checkb "allocates all expansions + scratch" true
    (s.Analysis.total_alloc >= cells * 10 * 8)

let test_barnes_hut_lock_balance () =
  (* every Lock is matched by an Unlock in serial order *)
  let prog = Dfd_benchmarks.Barnes_hut.prog ~bodies:128 ~block:16 ~tree_only:true () in
  let depth = ref 0 and bad = ref false in
  Analysis.iter_serial
    (fun a ->
       match a with
       | Dfd_dag.Action.Lock _ -> incr depth
       | Dfd_dag.Action.Unlock _ ->
         decr depth;
         if !depth < 0 then bad := true
       | _ -> ())
    prog;
  checkb "locks balanced" true ((not !bad) && !depth = 0)

(* Every address the Barnes-Hut programs touch, array by array, in serial
   1DF order: a refactor of how the programs build their address arrays
   must keep this digest (grain only regroups bodies into blocks, so Fine
   and Medium touch the same sequence). *)
let touch_digest prog =
  let buf = Buffer.create 4096 and arrays = ref 0 in
  Analysis.iter_serial
    (function
      | Dfd_dag.Action.Touch addrs ->
        incr arrays;
        Buffer.add_char buf '[';
        Array.iter (fun a -> Printf.bprintf buf "%d;" a) addrs;
        Buffer.add_char buf ']'
      | _ -> ())
    prog;
  (!arrays, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_barnes_hut_touch_digest () =
  List.iter
    (fun (b, arrays, digest) ->
       let n, d = touch_digest (b.W.prog ()) in
       let tag = Format.asprintf "%s (%a)" b.W.name W.pp_grain b.W.grain in
       checki (tag ^ " touch arrays") arrays n;
       Alcotest.(check string) (tag ^ " touch digest") digest d)
    [
      (Dfd_benchmarks.Barnes_hut.bench W.Fine, 20480, "a13ec33ad2c871fd473248985465d275");
      (Dfd_benchmarks.Barnes_hut.bench W.Medium, 20480, "a13ec33ad2c871fd473248985465d275");
      (Dfd_benchmarks.Barnes_hut.treebuild W.Fine, 12288, "9fe37e2677b9477a35eb0b4973ae3eb4");
    ]

let test_decision_tree_irregular () =
  let s = Analysis.analyze (Dfd_benchmarks.Decision_tree.prog ~instances:4000 ~cutoff:100 ~seed:7 ()) in
  checki "partitions balanced" 0 s.Analysis.final_heap;
  checkb "irregular tree forks plenty" true (s.Analysis.threads > 30)

let test_synthetic_geometric () =
  let small = Analysis.analyze (Dfd_benchmarks.Synthetic.prog ~levels:6 ~mem0:1024 ~gran0:64 ~seed:1 ()) in
  let big = Analysis.analyze (Dfd_benchmarks.Synthetic.prog ~levels:10 ~mem0:1024 ~gran0:64 ~seed:1 ()) in
  (* each internal node forks exactly one child (binary par), so threads =
     1 root + internal nodes = 2^(levels-1) *)
  checki "threads = 2^(levels-1)" (1 lsl 5) small.Analysis.threads;
  checkb "deeper -> more work" true (big.Analysis.work > small.Analysis.work);
  checki "balanced" 0 small.Analysis.final_heap

let test_pipeline_all_schedulers () =
  (* heavy condvar suspension must not deadlock any scheduler, blocking or
     spinning locks *)
  let b = Dfd_benchmarks.Pipeline.bench ~stages:4 ~items:16 W.Fine in
  let s = analyze b in
  List.iter
    (fun sched ->
       let r = Engine.run ~sched (Config.analysis ~p:4 ()) (b.W.prog ()) in
       checkb "work conserved" true (r.Engine.work >= s.Analysis.work))
    [ `Dfdeques; `Ws; `Adf; `Fifo ];
  (* stage count below 2 is rejected *)
  checkb "rejects 1 stage" true
    (try
       ignore (Dfd_benchmarks.Pipeline.prog ~stages:1 ~items:1 ~work_per_item:1 ());
       false
     with Invalid_argument _ -> true)

let test_lower_bound_serial_space () =
  (* the heart of Theorem 4.5: S1 of the adversarial dag is exactly A *)
  List.iter
    (fun (p, d, a) ->
       let s = Analysis.analyze (Dfd_benchmarks.Lower_bound.prog ~p ~d ~a_bytes:a ()) in
       checki
         (Printf.sprintf "S1 = A (p=%d d=%d)" p d)
         (if p >= 4 then a else 0)
         s.Analysis.serial_space;
       checki "balanced" 0 s.Analysis.final_heap)
    [ (4, 8, 64); (8, 16, 256); (16, 64, 1024); (2, 8, 64) ]

let test_lower_bound_blowup () =
  (* DFDeques(K=A) on p processors materialises ~p/2 live allocations *)
  let d = 32 and a = 512 in
  List.iter
    (fun p ->
       let prog = Dfd_benchmarks.Lower_bound.prog ~p ~d ~a_bytes:a () in
       let cfg = Config.analysis ~p ~mem_threshold:(Some a) () in
       let r = Engine.run ~sched:`Dfdeques cfg prog in
       checkb
         (Printf.sprintf "space grows with p=%d" p)
         true
         (r.Engine.heap_peak >= a * p / 4))
    [ 4; 8; 16 ]

let () =
  Alcotest.run "benchmarks"
    [
      ( "generic",
        [
          Alcotest.test_case "wellformed" `Quick test_all_wellformed;
          Alcotest.test_case "parallel enough" `Quick test_all_parallel_enough;
          Alcotest.test_case "fine > medium threads" `Quick test_fine_has_more_threads;
          Alcotest.test_case "deterministic" `Quick test_deterministic_construction;
          Alcotest.test_case "registry" `Quick test_registry_lookup;
          Alcotest.test_case "run under all schedulers" `Quick
            test_all_run_under_all_schedulers;
        ] );
      ( "specific",
        [
          Alcotest.test_case "dense mm shape" `Quick test_dense_mm_shape;
          Alcotest.test_case "dense mm args" `Quick test_dense_mm_rejects_bad_args;
          Alcotest.test_case "sparse shape" `Quick test_sparse_shape;
          Alcotest.test_case "fft shape" `Quick test_fft_shape;
          Alcotest.test_case "fmm shape" `Quick test_fmm_shape;
          Alcotest.test_case "barnes-hut locks" `Quick test_barnes_hut_lock_balance;
          Alcotest.test_case "barnes-hut touch digest" `Quick test_barnes_hut_touch_digest;
          Alcotest.test_case "decision tree" `Quick test_decision_tree_irregular;
          Alcotest.test_case "synthetic geometric" `Quick test_synthetic_geometric;
          Alcotest.test_case "pipeline" `Quick test_pipeline_all_schedulers;
          Alcotest.test_case "lower bound S1" `Quick test_lower_bound_serial_space;
          Alcotest.test_case "lower bound blowup" `Quick test_lower_bound_blowup;
        ] );
    ]
