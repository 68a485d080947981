(* Clocks, order statistics, process facts, the op loops and the span log
   shared by every workload. *)

let now = Unix.gettimeofday

(* Nearest-rank quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fratio a b = ratio (float_of_int a) (float_of_int b)

(* The process high-water resident set, from the kernel's VmHWM line. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let rec go () =
         let line = input_line ic in
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
         else go ()
       in
       go ())

(* Minor and major collections and words allocated so far, as
   [Gc.quick_stat] reports them; ops are bracketed to count their own. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  ( s.Gc.minor_collections,
    s.Gc.major_collections,
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words )

(* Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* What an op's time is reported against: the end-to-end [op_time_rel]
   is the op's time over a reference time taken beside it.

   The host's speed drifts: the same sim op on the same input reads 58 ms
   for a few seconds and 82 ms for the next few, and every op of a whole
   run can be 1.5x slower than in a run minutes later.  Over five seeds
   the sim's mean op time spread 14-33% of its median, while fib, psort
   and the service, measured in the same minutes, spread 1-10%.  The
   service waits mostly in the hand-off's timed sleeps; why the
   two-domain pool workloads move less is not known.

   So a sim op is reported against the calibration kernel, a fixed piece
   of work that calls none of the program's code, timed after each op.
   It makes recursive integer calls, hashes into a table on the OCaml
   heap, and reads at pseudo-random places in a 2 MiB off-heap buffer,
   first with inlined loads and then through the runtime's generic C
   accessor.  The mix is set by measurement.  An earlier kernel without
   the accessor reads slowed down less than the sim op: over five seeds
   the op's time over the kernel's rose 6% when the op slowed 25%.  The
   accessor reads alone slowed down more: the ratio fell 14% when the op
   slowed 24%.  With both, the ratio's median moved 1-4% between two
   sets of five seeds whose ops differed by 30%, and it spread 3-8%
   within each set.

   The other workloads' ops are reported against a fixed 1 ms, that is,
   in ms.  Against the kernel, fib, psort and the service spread more
   than in ms, because their ops do not slow down with it. *)
module Reference = struct
  let words = 1 lsl 18

  let buffer = Bigarray.Array1.init Bigarray.int Bigarray.c_layout words (fun i -> i)

  (* Generic in the element kind, so each read is a call into the
     runtime's C accessor, not an inlined load. *)
  let read (b : (int, _, Bigarray.c_layout) Bigarray.Array1.t) i = Bigarray.Array1.get b i

  let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

  let kernel () =
    let acc = ref (sfib 22) in
    let h = Hashtbl.create 16 in
    for i = 1 to 8_000 do
      Hashtbl.replace h ((i * 7919) land 0x3fff) i
    done;
    for i = 1 to 8_000 do
      acc := !acc + Option.value ~default:0 (Hashtbl.find_opt h (i land 0x3fff))
    done;
    let x = ref 1 in
    for _ = 1 to 60_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      acc := !acc + Bigarray.Array1.unsafe_get buffer ((!x lsr 10) land (words - 1))
    done;
    for _ = 1 to 40_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      acc := !acc + read buffer ((!x lsr 10) land (words - 1))
    done;
    !acc

  (* Wall time of one kernel run, in ms. *)
  let kernel_ms () =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    (now () -. t0) *. 1000.0

  let fixed_ms () = 1.0
end

(* The value reported for a series taken in time order, over a second
   series taken beside it: split both into consecutive fifths, take the
   sum of the first over the sum of the second in each fifth, and report
   the median of the five ratios (fewer parts when there are fewer than
   five values).

   Within a run the host's speed switches between modes for seconds at a
   time.  A run's median or p90 jumps to whichever mode holds that share
   of its samples, while a ratio of sums moves only in proportion to the
   time spent in each mode, and the median of five ignores a slow spell
   that covers less than two fifths of the run. *)
let chunks = 5

let fifths_ratio num den =
  let a = Array.of_list num and b = Array.of_list den in
  let n = Array.length a in
  if n = 0 || Array.length b <> n then invalid_arg "fifths_ratio: no samples, or unequal series";
  let k = min chunks n in
  median
    (List.init k (fun c ->
         let lo = c * n / k and hi = (c + 1) * n / k in
         let sa = ref 0.0 and sb = ref 0.0 in
         for i = lo to hi - 1 do
           sa := !sa +. a.(i);
           sb := !sb +. b.(i)
         done;
         !sa /. !sb))

(* With ones as the second series: the median of the fifths' means. *)
let fifths_median xs = fifths_ratio xs (List.map (fun _ -> 1.0) xs)

(* Set-up rounds.  One runs before the first timed op, and each
   workload's loop repeats its set-up every few rounds, so that set-up
   time is sampled through the whole run like the ops.  [setup_s] is the
   fifths median of the rounds. *)
let setup_times = ref []

let timed_setup f =
  let st, dt = timed f in
  setup_times := dt :: !setup_times;
  st

(* Metric values set by the workloads, emitted by name at exit. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" name);
  Hashtbl.replace values name v

(* Spans: name, start, end, parent and request id, kept in memory and
   written out when the run ends.  Only the client thread records. *)
module Spans = struct
  type span = { id : int; name : string; req : int; parent : int; t0 : float; t1 : float }

  let log : span list ref = ref []

  let next = ref 0

  (* A fresh span id, taken before the span ends so children can name it. *)
  let fresh () =
    incr next;
    !next

  (* Record a finished interval; [parent] is a span id, or -1. *)
  let add ?(id = fresh ()) ?(parent = -1) ~req name t0 t1 =
    log := { id; name; req; parent; t0; t1 } :: !log

  (* Time [f id] as a span with that id. *)
  let span ?parent ~req name f =
    let id = fresh () in
    let t0 = now () in
    let v = f id in
    add ~id ?parent ~req name t0 (now ());
    v

  (* Self time per span: its duration minus the union of its children's
     intervals. *)
  let self_times () =
    let kids = Hashtbl.create 1024 in
    List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1)) !log;
    List.rev_map
      (fun s ->
         let covered, _ =
           List.fold_left
             (fun (acc, hi) (a, b) ->
                let a = Float.max a hi in
                if b > a then (acc +. (b -. a), b) else (acc, hi))
             (0.0, neg_infinity)
             (List.sort compare (Hashtbl.find_all kids s.id))
         in
         (s, s.t1 -. s.t0 -. covered))
      !log

  (* Write every span as one JSON line and print the median self time
     per span name. *)
  let dump path =
    let selfs = self_times () in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
         List.iter
           (fun (s, self) ->
              Printf.fprintf oc
                "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"self_us\":%.1f}\n"
                s.id s.name s.req s.parent s.t0 s.t1 (self *. 1e6))
           selfs);
    let by = Hashtbl.create 16 in
    List.iter (fun (s, self) -> Hashtbl.add by s.name (self *. 1e6)) selfs;
    Hashtbl.fold (fun name _ acc -> if List.mem name acc then acc else name :: acc) by []
    |> List.sort compare
    |> List.iter (fun name ->
        let xs = Hashtbl.find_all by name in
        Printf.printf "span %-26s n=%-7d self p50 %10.1f us\n" name (List.length xs) (median xs));
    Printf.printf "spans: %d written to %s\n%!" (List.length selfs) path
end

(* How an op reports the calls it makes into a layer: untraced ops just
   call, traced ops record each call as a span under the op's span. *)
type wrap = string -> (unit -> unit) -> unit

let no_wrap : wrap = fun _ f -> f ()

(* Per-policy op samples: wall times (newest first), GC counts and
   allocation per op, and in the untraced loops the reference time
   beside each op. *)
module Samples = struct
  type t = {
    mutable ms : float list;
    mutable ref_ms : float list;
    mutable minor : int;
    mutable major : int;
    mutable words : float;
    mutable attempted : int;
    mutable failed : int;
  }

  let create () =
    { ms = []; ref_ms = []; minor = 0; major = 0; words = 0.0; attempted = 0; failed = 0 }

  (* One op: [run ()] is timed, [check ()] then validates its output
     untimed; an exception in either counts as a failure.  Then
     [reference ()] gives the reference time beside it, if asked for. *)
  let record ?reference t (run, check) =
    let mi0, ma0, w0 = gc_counts () in
    let t0 = now () in
    let ran = match run () with () -> true | exception _ -> false in
    let dt = now () -. t0 in
    let mi1, ma1, w1 = gc_counts () in
    let ok = ran && (try check () with _ -> false) in
    t.ms <- (dt *. 1000.0) :: t.ms;
    t.minor <- t.minor + (mi1 - mi0);
    t.major <- t.major + (ma1 - ma0);
    t.words <- t.words +. (w1 -. w0);
    t.attempted <- t.attempted + 1;
    if not ok then t.failed <- t.failed + 1;
    Option.iter (fun reference -> t.ref_ms <- reference () :: t.ref_ms) reference
end

(* An op-based workload's policies: each tag with a maker of one op
   (its timed run and untimed check), given how to report layer calls. *)
type ops = (string * (wrap -> (unit -> unit) * (unit -> bool))) list

(* p90 needs at least ten samples beyond it. *)
let min_samples = 100

let new_samples (ops : ops) = List.map (fun (tag, _) -> (tag, Samples.create ())) ops

(* The closed loop of the op-based workloads: one client runs each
   policy's op in turn, in a seeded order per round so neither policy
   always runs first, until [seconds] have passed and every policy has
   [min_samples] samples.  [renew] runs between rounds, every [every]
   rounds, and [reference] after each op. *)
let interleaved ~renew:(every, renew) ~reference ~rng ~seconds (ops : ops) =
  let samples = new_samples ops in
  let deadline = now () +. seconds in
  let short () = List.exists (fun (_, s) -> s.Samples.attempted < min_samples) samples in
  let round = ref 0 in
  while now () < deadline || short () do
    if !round > 0 && !round mod every = 0 then renew ();
    incr round;
    let order = if Dfd_structures.Prng.bool rng then ops else List.rev ops in
    List.iter
      (fun (tag, mk) -> Samples.record ~reference (List.assoc tag samples) (mk no_wrap))
      order
  done;
  samples

(* [reps] rounds of every op in [ops], in order: the fixed-count loop of
   the traced-mode comparisons. *)
let repeat_ops ~reps (ops : ops) =
  let samples = new_samples ops in
  for _ = 1 to reps do
    List.iter (fun (tag, mk) -> Samples.record (List.assoc tag samples) (mk no_wrap)) ops
  done;
  samples

(* The traced loop: every round runs each policy's op once traced and
   once untraced, in a seeded order, for [seconds].  A traced op is an
   op span whose children are its set-up, its layer calls and its check,
   all under one request id.  Both kinds are checked.  Returns the
   traced and the untraced samples per policy, and the median op time
   traced over untraced. *)
let traced_interleaved ~rng ~seconds (ops : ops) =
  let traced = new_samples ops and plain = new_samples ops in
  let traced_op tag mk =
    let req = Spans.fresh () in
    Spans.span ~req ("bench.op." ^ tag) (fun op ->
        let wrap name f = Spans.span ~parent:op ~req name (fun _ -> f ()) in
        let run, check = Spans.span ~parent:op ~req "bench.prepare" (fun _ -> mk wrap) in
        Samples.record (List.assoc tag traced)
          (run, fun () -> Spans.span ~parent:op ~req "bench.check" (fun _ -> check ())))
  in
  let plain_op tag mk = Samples.record (List.assoc tag plain) (mk no_wrap) in
  let deadline = now () +. seconds in
  let short () = List.exists (fun (_, s) -> s.Samples.attempted < 20) traced in
  while now () < deadline || short () do
    List.iter
      (fun (tag, mk) ->
         if Dfd_structures.Prng.bool rng then begin
           plain_op tag mk;
           traced_op tag mk
         end
         else begin
           traced_op tag mk;
           plain_op tag mk
         end)
      ops
  done;
  let all samples = List.concat_map (fun (_, s) -> s.Samples.ms) samples in
  (traced, plain, median (all traced) /. median (all plain))

(* The end-to-end op metric of one policy's samples, when they carry
   reference times, plus the mean, quantiles and per-op GC and
   allocation figures of the traced table. *)
let set_op_metrics tag (s : Samples.t) =
  let mean = fifths_median s.ms in
  if s.ref_ms <> [] then set ("op_time_rel." ^ tag) (fifths_ratio s.ms s.ref_ms);
  set ("bench.op_ms_mean." ^ tag) mean;
  set ("bench.op_ms_p50." ^ tag) (median s.ms);
  set ("bench.op_ms_p90." ^ tag) (quantile s.ms 0.9);
  set ("gc.minor_per_op." ^ tag) (fratio s.minor s.attempted);
  set ("gc.major_per_op." ^ tag) (fratio s.major s.attempted);
  set ("runtime.alloc_mb_per_op." ^ tag)
    (s.words *. float_of_int (Sys.word_size / 8) /. 1048576.0 /. float_of_int s.attempted);
  Printf.printf "%-4s %6d ops  mean %9.3f ms  p50 %9.3f ms  p90 %9.3f ms  %d failed\n%!" tag
    s.attempted mean (median s.ms) (quantile s.ms 0.9) s.failed;
  if s.ref_ms <> [] then
    Printf.printf "%-4s reference p50 %.3f ms  op over reference %.3f\n%!" tag (median s.ref_ms)
      (fifths_ratio s.ms s.ref_ms)

(* Attempted and failed ops over every policy's samples. *)
let totals samples =
  List.fold_left
    (fun (a, f) (_, s) -> (a + s.Samples.attempted, f + s.Samples.failed))
    (0, 0) samples
