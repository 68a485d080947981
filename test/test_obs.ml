(* Tests for the telemetry plane (lib/obs): registry probes and their
   upsert and counter-carry semantics, snapshot determinism, OpenMetrics
   round-trips through the Om_util parser (unit + property), and the live
   Theorem-4.4 headroom profiler checked differentially against
   [Oracle.thm44].  The flight-recorder ring is a [Tracer] and is tested
   in test_trace. *)

module Registry = Dfd_obs.Registry
module Openmetrics = Dfd_obs.Openmetrics
module Headroom = Dfd_obs.Headroom
module Event = Dfd_trace.Event
module Json = Dfd_trace.Json
module Prog = Dfd_dag.Prog
module Analysis = Dfd_dag.Analysis
module Config = Dfd_machine.Config
module Engine = Dfdeques_core.Engine
module Oracle = Dfd_check.Oracle
module Pool = Dfd_runtime.Pool
module Service = Dfd_service.Service
module Stats = Dfd_structures.Stats
open Prog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Registry probes                                                     *)
(* ------------------------------------------------------------------ *)

let read reg name =
  match List.find_opt (fun s -> s.Registry.name = name) (Registry.snapshot reg) with
  | Some { Registry.value = Registry.Counter_v v | Registry.Gauge_v v; _ } -> v
  | _ -> Alcotest.fail (name ^ ": integer sample missing")

let test_snapshot_sorted_stable () =
  let reg = Registry.create () in
  Registry.probe reg ~kind:`Gauge ~stable:true "t_b" (fun () -> 7);
  Registry.probe reg ~kind:`Counter "t_a_total" (fun () -> 1);
  Registry.probe reg ~kind:`Gauge ~stable:true "t_c" (fun () -> 42);
  let names snap = List.map (fun s -> s.Registry.name) snap in
  checkb "sorted by name" true
    (let n = names (Registry.snapshot reg) in
     n = List.sort compare n);
  checkb "full snapshot has all three" true
    (List.for_all (fun n -> List.mem n (names (Registry.snapshot reg))) [ "t_a_total"; "t_b"; "t_c" ]);
  let stable = names (Registry.snapshot ~stable_only:true reg) in
  checkb "stable_only keeps stable series" true (List.mem "t_b" stable && List.mem "t_c" stable);
  checkb "stable_only drops unstable counter" false (List.mem "t_a_total" stable);
  (* two snapshots of quiescent state are identical *)
  checkb "snapshot deterministic" true (Registry.snapshot reg = Registry.snapshot reg)

let test_disabled_noop () =
  let reg = Registry.disabled in
  checkb "disabled" false (Registry.enabled reg);
  Registry.probe reg ~kind:`Counter "t_off_total" (fun () -> 1);
  Registry.probe reg ~kind:`Gauge "t_off_gauge" (fun () -> 99);
  Registry.probe_float reg "t_off_ratio" (fun () -> 0.5);
  Registry.probe_histogram reg "t_off_hist" (fun () ->
      Registry.hist_of_stats (Stats.Histogram.create ()));
  checkb "snapshot empty" true (Registry.snapshot reg = [])

let test_upsert () =
  let reg = Registry.create () in
  let cell = ref 1 in
  Registry.probe reg ~kind:`Gauge "t_up_probe" (fun () -> !cell);
  checki "probe reads closure" 1 (read reg "t_up_probe");
  cell := 5;
  checki "probe reads at snapshot time" 5 (read reg "t_up_probe");
  Registry.probe reg ~kind:`Gauge "t_up_probe" (fun () -> 1000);
  checki "gauge re-registration replaces closure" 1000 (read reg "t_up_probe");
  checkb "kind mismatch rejected" true
    (try
       Registry.probe reg ~kind:`Counter "t_up_probe" (fun () -> 0);
       false
     with Invalid_argument _ -> true);
  (* a counter's replaced closure carries its last value into the series,
     as a respawned pool's counters must *)
  let old = ref 5 and fresh = ref 0 in
  Registry.probe reg ~kind:`Counter "t_up_total" (fun () -> !old);
  Registry.probe reg ~kind:`Counter "t_up_total" (fun () -> !fresh);
  checki "counter carries the replaced value" 5 (read reg "t_up_total");
  fresh := 3;
  old := 100;
  checki "fresh state adds on; the old closure is no longer read" 8 (read reg "t_up_total");
  Registry.probe reg ~kind:`Counter "t_up_total" (fun () -> failwith "boom");
  Registry.probe reg ~kind:`Counter "t_up_total" (fun () -> 1);
  checki "a raising closure carries nothing" 9 (read reg "t_up_total");
  Registry.probe reg ~kind:`Gauge "t_up_raises" (fun () -> failwith "boom");
  checkb "raising probe contributes no sample" false
    (List.exists (fun s -> s.Registry.name = "t_up_raises") (Registry.snapshot reg))

let test_split_labeled () =
  checkb "labeled" true
    (Registry.split_labeled "fam{k=\"v\"}" = ("fam", Some "k=\"v\""));
  checkb "plain" true (Registry.split_labeled "fam_total" = ("fam_total", None));
  checkb "bad leading digit rejected" true
    (try
       ignore (Registry.split_labeled "9fam");
       false
     with Invalid_argument _ -> true);
  checkb "unterminated labels rejected" true
    (try
       ignore (Registry.split_labeled "fam{k=\"v\"");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition round-trips                                  *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_roundtrip_unit () =
  let reg = Registry.create () in
  let h = Stats.Histogram.create () in
  List.iter (fun v -> Stats.Histogram.add h (float_of_int v)) [ 0; 1; 1; 5; 300 ];
  Registry.probe reg ~kind:`Counter ~help:"events" "om_events_total" (fun () -> 17);
  Registry.probe reg ~kind:`Gauge "om_depth" (fun () -> -3);
  Registry.probe reg ~kind:`Gauge "om_live_bytes{policy=\"dfd\"}" (fun () -> 4096);
  Registry.probe_histogram reg "om_lat" (fun () -> Registry.hist_of_stats h);
  Registry.probe_float reg "om_ratio" (fun () -> 0.625);
  let text = Openmetrics.render (Registry.snapshot reg) in
  let om = Om_util.parse text in
  let value name = Option.get (Om_util.value om name) in
  checkb "counter survives" true (value "om_events_total" = 17.0);
  checkb "gauge survives" true (value "om_depth" = -3.0);
  checkb "float probe survives" true (value "om_ratio" = 0.625);
  checkb "labeled gauge survives" true
    (Om_util.value ~labels:[ ("policy", "dfd") ] om "om_live_bytes" = Some 4096.0);
  (match Om_util.family om "om_events_total" with
   | Some f ->
     checkb "counter typed" true (f.Om_util.f_type = Om_util.Counter);
     checkb "help preserved" true (f.Om_util.f_help = Some "events")
   | None -> Alcotest.fail "family om_events_total missing");
  let buckets = Om_util.buckets om "om_lat" in
  checkb "bucket counts cumulative" true
    (List.for_all2 ( <= ) (List.map snd buckets) (List.tl (List.map snd buckets) @ [ max_int ]));
  (match List.rev buckets with
   | (le, n) :: _ ->
     checkb "+Inf last" true (le = infinity);
     checki "+Inf equals count" 5 n
   | [] -> Alcotest.fail "histogram has no buckets");
  checkb "count line" true (value "om_lat_count" = 5.0);
  checkb "sum line" true (value "om_lat_sum" = 307.0)

(* Random mixtures of counter, gauge and histogram probes must survive a
   render + parse cycle exactly (values are integers, so no
   float-precision caveats).  Kind 2 is a histogram over the
   observations [0; 7; 14; ...] of length [|v| mod 20]. *)
let openmetrics_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 10)
        (pair (int_bound 2) (int_range (-100_000) 100_000)))
  in
  QCheck.Test.make ~name:"openmetrics render/parse roundtrip" ~count:100
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "(%d,%d)" k v) l))
       gen)
    (fun spec ->
      let reg = Registry.create () in
      let expect =
        List.concat
          (List.mapi
             (fun i (kind, v) ->
               match kind with
               | 0 ->
                 let name = Printf.sprintf "prop_c%d_total" i in
                 Registry.probe reg ~kind:`Counter name (fun () -> abs v);
                 [ (name, abs v) ]
               | 1 ->
                 let name = Printf.sprintf "prop_g%d" i in
                 Registry.probe reg ~kind:`Gauge name (fun () -> v);
                 [ (name, v) ]
               | _ ->
                 let name = Printf.sprintf "prop_h%d" i in
                 let obs = List.init (abs v mod 20) (fun j -> 7 * j) in
                 let h = Stats.Histogram.create () in
                 List.iter (fun x -> Stats.Histogram.add h (float_of_int x)) obs;
                 Registry.probe_histogram reg name (fun () -> Registry.hist_of_stats h);
                 [
                   (name ^ "_count", List.length obs);
                   (name ^ "_sum", List.fold_left ( + ) 0 obs);
                   (name ^ "_bucket", List.length obs);
                 ])
             spec)
      in
      let om = Om_util.parse (Openmetrics.render (Registry.snapshot reg)) in
      List.for_all
        (fun (name, v) ->
          let got =
            if String.ends_with ~suffix:"_bucket" name then
              Om_util.value ~labels:[ ("le", "+Inf") ] om name
            else Om_util.value om name
          in
          got = Some (float_of_int v))
        expect)

(* ------------------------------------------------------------------ *)
(* Headroom profiler                                                   *)
(* ------------------------------------------------------------------ *)

let test_headroom_budget_arithmetic () =
  let reg = Registry.create () in
  let hr = Headroom.create ~registry:reg ~policy:"t" ~s1:100 ~depth:4 ~p:2 ~k:10 () in
  checki "S1 + c*min(K,S1)*p*D" (100 + (8 * 10 * 2 * 4)) (Headroom.budget hr);
  Headroom.observe hr ~live_bytes:50;
  Headroom.observe hr ~live_bytes:30;
  checki "live tracks last" 30 (Headroom.live hr);
  checki "peak is a watermark" 50 (Headroom.peak hr);
  checkb "ratio = (budget - peak) / budget" true
    (let b = float_of_int (Headroom.budget hr) in
     Float.abs (Headroom.headroom_ratio hr -. ((b -. 50.0) /. b)) < 1e-9);
  let wide = Headroom.create ~registry:Registry.disabled ~policy:"w" ~s1:100 ~depth:4 ~p:2 ~k:200 () in
  checki "min(K, S1) saturates at S1" (100 + (8 * 100 * 2 * 4)) (Headroom.budget wide);
  Headroom.set_premature hr 7;
  checki "absolute premature" 7 (Headroom.premature hr);
  (* the gauges read the profiler's fields under the policy label *)
  let lbl n = n ^ "{policy=\"t\"}" in
  List.iter
    (fun (n, v) -> checki n v (read reg (lbl n)))
    [
      ("dfd_space_live_bytes", 30);
      ("dfd_space_peak_bytes", 50);
      ("dfd_space_budget_bytes", Headroom.budget hr);
      ("dfd_space_premature_nodes", 7);
    ];
  (* these five are the whole family: the fork depths of premature
     nodes are the engine's series alone, and K is fixed at [create], so
     there is no allocation-pressure gauge *)
  Alcotest.(check (list string))
    "gauge families"
    [
      "dfd_space_budget_bytes";
      "dfd_space_headroom_ratio";
      "dfd_space_live_bytes";
      "dfd_space_peak_bytes";
      "dfd_space_premature_nodes";
    ]
    (List.sort compare
       (List.map (fun s -> fst (Registry.split_labeled s.Registry.name)) (Registry.snapshot reg)))

let test_headroom_degenerate () =
  let reg = Registry.create () in
  (* s1/depth default to 0: budget degrades to the S1 term (= 0) *)
  let hr = Headroom.create ~registry:reg ~policy:"d" ~p:4 ~k:1000 () in
  checki "degenerate budget" 0 (Headroom.budget hr);
  checkb "pristine ratio is 1.0" true (Headroom.headroom_ratio hr = 1.0);
  Headroom.observe hr ~live_bytes:10;
  checkb "observed over zero budget is 0.0" true (Headroom.headroom_ratio hr = 0.0)

let test_headroom_matches_thm44 () =
  (* Differential: wire a live profiler into the same run Oracle.thm44
     performs and the budget must agree bit-for-bit.  The peak gauge is
     sampled at timestep boundaries so it may miss intra-step spikes the
     engine's own per-alloc watermark catches: assert <=, and exact
     equality only for the budget and the premature count. *)
  let rec tree d = if d = 0 then alloc 64 >> work 3 >> free 64 else par (tree (d - 1)) (tree (d - 1)) in
  let prog = finish (tree 4) in
  List.iter
    (fun (p, k) ->
      let r = Oracle.thm44 ~p ~k prog in
      let a = Analysis.analyze prog in
      checki "oracle and analysis agree on S1" r.Oracle.s1 a.Analysis.serial_space;
      let reg = Registry.create () in
      let hr =
        Headroom.create ~registry:reg ~policy:"dfd" ~s1:a.Analysis.serial_space
          ~depth:a.Analysis.depth ~p ~k ()
      in
      let res =
        Engine.run ~sched:`Dfdeques ~registry:reg ~headroom:hr
          (Config.analysis ~p ~mem_threshold:(Some k) ())
          prog
      in
      checki (Printf.sprintf "budget = thm44 bound (p=%d k=%d)" p k) r.Oracle.bound
        (Headroom.budget hr);
      checkb "live peak within the engine watermark" true (Headroom.peak hr <= r.Oracle.heap_peak);
      checkb "something was observed" true (Headroom.peak hr > 0);
      checki "premature gauge mirrors the engine" res.Engine.heavy_premature (Headroom.premature hr);
      if r.Oracle.ok then
        checkb "peak within budget when the theorem held" true
          (Headroom.peak hr <= Headroom.budget hr))
    [ (2, 128); (3, 256); (4, 64) ]

(* ------------------------------------------------------------------ *)
(* Service exposition                                                  *)
(* ------------------------------------------------------------------ *)

let test_service_metrics_text () =
  let config =
    {
      Service.default_config with
      Service.seed = 7;
      domains = 1;
      max_attempts = 2;
    }
  in
  let svc = Service.create ~config Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> try Service.shutdown svc with _ -> ())
    (fun () ->
      let om = Om_util.parse (Service.metrics_text svc) in
      checkb "service counters exposed" true
        (Om_util.value om "dfd_service_accepted_total" <> None);
      checkb "headroom gauges exposed" true
        (Om_util.value ~labels:[ ("policy", "service") ] om "dfd_space_budget_bytes" <> None);
      (* the counters object keeps an exact key set, in order *)
      checkb "counter key set pinned" true
        (List.map (fun s -> s.Registry.name) (Service.counter_samples svc)
        = [
            "accepted";
            "rejected_queue_full";
            "completions";
            "failures";
            "retries";
            "timeouts";
            "wedges";
            "respawns";
            "duplicate_acks";
          ]))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "snapshot sorted + stable filter" `Quick test_snapshot_sorted_stable;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_noop;
          Alcotest.test_case "upsert semantics" `Quick test_upsert;
          Alcotest.test_case "split_labeled" `Quick test_split_labeled;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "roundtrip" `Quick test_openmetrics_roundtrip_unit ]
        @ qsuite [ openmetrics_roundtrip_prop ] );
      ( "headroom",
        [
          Alcotest.test_case "budget arithmetic" `Quick test_headroom_budget_arithmetic;
          Alcotest.test_case "degenerate config" `Quick test_headroom_degenerate;
          Alcotest.test_case "matches Oracle.thm44" `Quick test_headroom_matches_thm44;
        ] );
      ( "service",
        [ Alcotest.test_case "metrics_text exposition" `Quick test_service_metrics_text ] );
    ]
