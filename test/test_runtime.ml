(* Tests for the real Domains-based fork-join pool: correctness of results
   under both deque disciplines, exception propagation, the quota
   mechanism, and determinism-independent invariants.  (This container has
   one core, so these are correctness tests, not speedup tests — the pool
   still runs real concurrent domains.) *)

module Pool = Dfd_runtime.Pool
module Watchdog = Dfd_structures.Watchdog
module Stats = Dfd_structures.Stats
module Registry = Dfd_obs.Registry

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Extra worker domains derived from the machine but capped at 4 workers
   total: oversubscribing a small CI container is the main source of
   flaky slow runs, and these are correctness tests — beyond a handful
   of workers they exercise nothing new. *)
let default_domains = min 4 (max 2 (Domain.recommended_domain_count ())) - 1

let with_pool ?(domains = default_domains) policy f =
  let pool = Pool.create ~domains policy in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Bounded spin-wait: poll [cond] under a wall-clock no-progress watchdog
   instead of looping forever — if the pool wedges, the test fails with
   its diagnostic snapshot rather than hanging the whole suite. *)
let spin_until ?(limit_ms = 20_000) ~snapshot cond =
  let wd = Watchdog.create ~limit:limit_ms ~snapshot () in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (cond ()) then begin
      Watchdog.check wd ~now:(int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let policies = [ (Pool.Work_stealing, "WS"); (Pool.Dfdeques { quota = 4096 }, "DFD") ]

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let rec fib n =
  if n < 2 then n
  else begin
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b
  end

(* One guaranteed steal.  The right branch keeps forking until a thief
   has run the left one, so its worker passes a fork boundary after every
   request; an unstolen fork costs no sync op, and this run must publish
   and steal.  Needs a worker domain. *)
let forced_steal pool =
  let taken = Atomic.make false in
  Pool.run pool (fun () ->
      ignore
        (Pool.fork_join
           (fun () -> Atomic.set taken true)
           (fun () ->
              spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
                  ignore (Pool.fork_join ignore ignore);
                  Atomic.get taken))))

let test_fib () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " fib 20") 6765 (Pool.run pool (fun () -> fib 20))))
    policies

let test_fork_join_order () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let a, b =
             Pool.run pool (fun () -> Pool.fork_join (fun () -> "left") (fun () -> "right"))
           in
           Alcotest.(check string) (name ^ " left") "left" a;
           Alcotest.(check string) (name ^ " right") "right" b))
    policies

let test_parallel_for_sum () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let n = 10_000 in
           let acc = Array.make n 0 in
           Pool.run pool (fun () -> Pool.parallel_for ~lo:0 ~hi:n (fun i -> acc.(i) <- i));
           let total = Array.fold_left ( + ) 0 acc in
           checki (name ^ " sum") (n * (n - 1) / 2) total))
    policies

let test_empty_ranges () =
  with_pool Pool.Work_stealing (fun pool ->
      Pool.run pool (fun () -> Pool.parallel_for ~lo:5 ~hi:5 (fun _ -> assert false));
      checki "empty reduce" 7
        (Pool.run pool (fun () ->
             Pool.parallel_reduce ~zero:7 ~op:( + ) ~lo:5 ~hi:5 (fun _ -> assert false))))

let test_parallel_reduce () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let n = 5000 in
           let total =
             Pool.run pool (fun () ->
                 Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i -> i))
           in
           checki (name ^ " reduce") (n * (n - 1) / 2) total;
           let mx =
             Pool.run pool (fun () ->
                 Pool.parallel_reduce ~zero:min_int ~op:max ~lo:0 ~hi:n (fun i ->
                     (i * 7919) mod 1000))
           in
           checki (name ^ " max reduce") 999 mx))
    policies

let test_psort_correct () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let rng = Dfd_structures.Prng.create 31 in
           List.iter
             (fun n ->
                let arr = Array.init n (fun _ -> Dfd_structures.Prng.int rng 10_000) in
                let expect = Array.copy arr in
                Array.sort compare expect;
                Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:64 ~cmp:compare arr);
                checkb
                  (Printf.sprintf "%s psort n=%d" name n)
                  true (arr = expect))
             [ 0; 1; 2; 63; 64; 65; 1000; 10_000 ]))
    policies

let test_psort_already_sorted_and_reverse () =
  with_pool Pool.Work_stealing (fun pool ->
      let n = 5000 in
      let asc = Array.init n (fun i -> i) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:128 ~cmp:compare asc);
      checkb "ascending stays sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare asc);
      let desc = Array.init n (fun i -> n - i) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:128 ~cmp:compare desc);
      checkb "descending gets sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare desc);
      checki "still a permutation" (n * (n + 1) / 2) (Array.fold_left ( + ) 0 desc))

(* Sorted, and the input's multiset: equal under a full [compare] once
   both sides are put in order by it. *)
let same_multiset a b =
  let a = Array.copy a and b = Array.copy b in
  Array.sort compare a;
  Array.sort compare b;
  a = b

(* Every block in [out] is the input's own block at the position [pos]
   reads from it, each used once: with [same_multiset], the output holds
   exactly the input's blocks under physical equality, so a permutation
   that copies or drops one fails. *)
let own_blocks ~pos out input =
  let used = Array.make (Array.length input) false in
  Array.for_all
    (fun x ->
       match pos x with
       | None -> true
       | Some i ->
           let fresh = not used.(i) in
           used.(i) <- true;
           fresh && x == input.(i))
    out

(* One line per element, hashed: [show] must tell apart every element
   that a wrong order would move. *)
let digest show arr =
  let b = Buffer.create 4096 in
  Array.iter
    (fun x ->
       Buffer.add_string b (show x);
       Buffer.add_char b ';')
    arr;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The order of elements that [cmp] ties, pinned by digests of the
   output: a coarse comparator on the int path, (key, position) pairs
   with 50 keys on the index path, and a flat [float array] of 0.0 and
   -0.0, which [Float.compare] ties but whose sign shows.  Any merge that
   keeps the tie rule (the longer run's element first) gives these
   digests under a valid comparator.  A seeded
   comparator that answers -1, 0 or 1 at random must still give a
   permutation of the input (the input's own blocks, for pairs).  Per
   shape (n, cutoff): the digests of the ints, the pairs and the floats,
   recorded from the two-finger merge. *)
let tie_cases =
  [
    ( 1000, 64,
      "f2fbc0b52e2cc17c1e4de19dd1b31cd9",
      "21ee2e1ead83423b79609102afda0514",
      "844aaa8a8fc496eb27673253b943ceda" );
    ( 10_000, 64,
      "b8420b310de9df27e33df1c4ca3248e2",
      "08f17884b1c2c59381da708bf61ba62c",
      "43e2725b3fccbc7444d5f759c319e75a" );
    ( 100_000, 512,
      "57d36e54524559d4235b6087496fbe3a",
      "0a5d493ed114725d09b6b9c84e461bd6",
      "87138583aae73800c017bec869863ad4" );
    ( 100_000, 4096,
      "dc907eeef493dcfea60fb336e94f5e1f",
      "ca8fcfb6db6ca78c4966be005228a8cd",
      "a01e7e561e70b18072ed08cc3c922bbb" );
    ( 37, 1,
      "e063334239d32472bc72356e07100834",
      "6fdf30ebceb3d610dc09e6d38b19dfab",
      "73166039ad5d2cb44ad72d9344c49f64" );
    ( 5000, 17,
      "e8b77f9304acf0cb02787564aea22f75",
      "cb4847841e2ba316fddcdb2d234f5689",
      "1c4b90ecb5b852321b45050de13a3545" );
  ]

let test_psort_duplicates_and_custom_cmp () =
  with_pool (Pool.Dfdeques { quota = 8192 }) (fun pool ->
      let arr = Array.init 3000 (fun i -> i mod 7) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:100 ~cmp:compare arr);
      checkb "duplicates sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare arr);
      (* descending comparator *)
      let arr2 = Array.init 2000 (fun i -> (i * 7919) mod 500) in
      let cmp a b = compare b a in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:100 ~cmp arr2);
      checkb "descending order" true (Dfd_runtime.Psort.sorted ~cmp arr2);
      let sort ~cutoff ~cmp arr = Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff ~cmp arr) in
      List.iteri
        (fun k (n, cutoff, d_ints, d_pairs, d_floats) ->
           let st = Random.State.make [| n; cutoff |] in
           let ints = Array.init n (fun _ -> Random.State.int st (1 lsl 20)) in
           let pairs = Array.init n (fun i -> (Random.State.int st 50, i)) in
           let floats = Array.init n (fun _ -> if Random.State.bool st then 0.0 else -0.0) in
           let check kind want got =
             Alcotest.(check string)
               (Printf.sprintf "%s tie order n=%d cutoff=%d" kind n cutoff)
               want got
           in
           let a = Array.copy ints in
           sort ~cutoff ~cmp:(fun a b -> compare (a lsr 12) (b lsr 12)) a;
           check "ints" d_ints (digest string_of_int a);
           let p = Array.copy pairs in
           sort ~cutoff ~cmp:(fun (a, _) (b, _) -> Int.compare a b) p;
           check "pairs" d_pairs (digest (fun (key, i) -> Printf.sprintf "%d,%d" key i) p);
           let f = Array.copy floats in
           sort ~cutoff ~cmp:Float.compare f;
           check "floats" d_floats (digest (fun x -> if Float.sign_bit x then "-" else "+") f);
           (* an inconsistent comparator: any answer, no order to keep *)
           let random_cmp a b = (Hashtbl.hash (k, a, b) mod 3) - 1 in
           let name = Printf.sprintf "random comparator n=%d cutoff=%d" n cutoff in
           let a = Array.copy ints in
           sort ~cutoff ~cmp:random_cmp a;
           checkb (name ^ " ints permuted") true (same_multiset a ints);
           let p = Array.copy pairs in
           sort ~cutoff ~cmp:random_cmp p;
           checkb (name ^ " pairs permuted") true
             (same_multiset p pairs && own_blocks ~pos:(fun (_, i) -> Some i) p pairs))
        tie_cases)

(* A cutoff below 1 would recurse without reaching a leaf; the sort must
   refuse it before forking anything, leaving the array untouched. *)
let test_psort_rejects_cutoff () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       List.iter
         (fun cutoff ->
            let arr = [| 4; 3; 2; 1 |] in
            let tasks0 = (Pool.counters pool).tasks_run in
            let raised =
              try
                Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff ~cmp:compare arr);
                false
              with Invalid_argument _ -> true
            in
            let name = Printf.sprintf "cutoff %d" cutoff in
            checkb (name ^ " rejected") true raised;
            checki (name ^ " nothing forked") tasks0 (Pool.counters pool).tasks_run;
            checkb (name ^ " array untouched") true (arr = [| 4; 3; 2; 1 |]))
         [ 0; -1 ])

(* [Int.compare] takes the core's inline compare, any other closure the
   compare through [cmp]; on ints the two must give [List.sort]'s array.
   Sizes and cutoffs straddle the insertion-run length (16) and the
   serial cutoff, on p = 1 and p = 2 pools under both disciplines. *)
let test_psort_inline_order () =
  let pools =
    List.concat_map
      (fun domains -> List.map (fun (policy, name) -> (Pool.create ~domains policy, name, domains)) policies)
      [ 0; 1 ]
  in
  let st = Random.State.make [| 41 |] in
  let inputs n =
    [
      ("duplicates", Array.init n (fun _ -> Random.State.int st 8));
      ( "extremes",
        Array.init n (fun _ ->
            match Random.State.int st 6 with
            | 0 -> min_int
            | 1 -> max_int
            | _ -> Random.State.int st 200 - 150) );
    ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (pool, _, _) -> Pool.shutdown pool) pools)
    (fun () ->
       List.iter
         (fun n ->
            List.iter
              (fun (kind, input) ->
                 let expect = Array.of_list (List.sort Int.compare (Array.to_list input)) in
                 List.iter
                   (fun cutoff ->
                      List.iter
                        (fun (pool, name, domains) ->
                           let sort cmp =
                             let a = Array.copy input in
                             Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff ~cmp a);
                             a
                           in
                           let inline = sort Int.compare and closure = sort (fun a b -> Int.compare a b) in
                           let case = Printf.sprintf "%s p=%d %s n=%d cutoff=%d" name (domains + 1) kind n cutoff in
                           checkb (case ^ " inline = List.sort") true (inline = expect);
                           checkb (case ^ " closure = List.sort") true (closure = expect))
                        pools)
                   [ 1; 16; 17; 512 ])
              (inputs n))
         [ 0; 1; 2; 17; 1000; 5000 ])

(* Sizes weighted toward the edges of the kernel: empty and tiny arrays,
   the insertion-run length (16) +- 1 and the cutoff +- 1. *)
let psort_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 128 >>= fun cutoff ->
    frequency
      [
        (1, oneofl [ 0; 1; 2 ]);
        (1, oneofl [ 15; 16; 17 ]);
        (1, oneofl [ cutoff - 1; cutoff; cutoff + 1 ]);
        (2, int_range 0 2000);
      ]
    >>= fun n ->
    int_bound 1_000_000 >|= fun seed -> (cutoff, n, seed)
  in
  QCheck.make ~print:QCheck.Print.(triple int int int) gen

(* An element kind that mixes immediates ([Low], [High]) and blocks
   ([Mid (key, i)], which remembers its input position [i]). *)
type mixed = Low | Mid of int * int | High

(* Every element kind on every pool: ints with many duplicates, small
   negatives among them and [min_int] and [max_int] (so a compare or a
   select that subtracts overflows), a flat [float array], boxed (int * string) pairs compared on the int only,
   and [mixed] arrays: a random mix, and all immediates but one block at
   index 0 or at n - 1 (the ends of the all-immediate scan).  The pair and
   mixed comparators force a minor GC every 512 calls, so the sort moves
   heap pointers while the collector relocates them. *)
let qcheck_psort pools =
  QCheck.Test.make ~count:60 ~name:"psort sorts ints, floats, boxed pairs and mixed" psort_case
    (fun (cutoff, n, seed) ->
       let st = Random.State.make [| seed |] in
       let ints =
         Array.init n (fun _ ->
             match Random.State.int st 8 with
             | 0 -> min_int
             | 1 -> max_int
             | _ -> Random.State.int st (1 + (n / 8)) - (n / 16))
       in
       let floats = Array.init n (fun _ -> Float.of_int (Random.State.int st 100) /. 8.) in
       let pairs =
         Array.init n (fun i -> (Random.State.int st (1 + (n / 4)), string_of_int i))
       in
       let key () = Random.State.int st (1 + (n / 4)) in
       let mixed =
         Array.init n (fun i ->
             match Random.State.int st 3 with 0 -> Low | 1 -> Mid (key (), i) | _ -> High)
       in
       let one_block at =
         Array.init n (fun i ->
             if i = at then Mid (key (), i) else if Random.State.bool st then Low else High)
       in
       let calls = Atomic.make 0 in
       let tick () = if Atomic.fetch_and_add calls 1 land 511 = 0 then Gc.minor () in
       let cmp_pair (a, _) (b, _) =
         tick ();
         Int.compare a b
       in
       let rank = function Low -> 0 | Mid _ -> 1 | High -> 2 in
       let cmp_mixed a b =
         tick ();
         match (a, b) with
         | Mid (x, _), Mid (y, _) -> Int.compare x y
         | _ -> Int.compare (rank a) (rank b)
       in
       let check ?(pos = fun _ -> None) name cmp input =
         List.for_all
           (fun pool ->
              let arr = Array.copy input in
              Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff ~cmp arr);
              (Dfd_runtime.Psort.sorted ~cmp arr && same_multiset arr input
               || QCheck.Test.fail_reportf "%s: not a sorted permutation" name)
              && (own_blocks ~pos arr input
                  || QCheck.Test.fail_reportf "%s: not the input's own blocks" name))
           pools
       in
       let pair_pos (_, s) = Some (int_of_string s) in
       let mixed_pos = function Mid (_, i) -> Some i | Low | High -> None in
       check "ints" Int.compare ints
       && check "floats" Float.compare floats
       && check ~pos:pair_pos "pairs" cmp_pair pairs
       && check ~pos:mixed_pos "mixed" cmp_mixed mixed
       && (n = 0
           || check ~pos:mixed_pos "mixed, one block first" cmp_mixed (one_block 0)
              && check ~pos:mixed_pos "mixed, one block last" cmp_mixed (one_block (n - 1))))

let test_psort_qcheck () =
  let pools =
    List.concat_map
      (fun domains ->
         List.map (fun (policy, _) -> Pool.create ~domains policy) policies)
      [ 0; 1 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Pool.shutdown pools)
    (fun () -> QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |]) (qcheck_psort pools))

(* Counting, not timing: one sort of 100k ints allocates its scratch copy
   (n + 1 words) and the closures and promises of its forks, nothing per
   element.  The per-fork allowance is measured on the same pool from
   fib's forks, plus 16 words: psort's two branch closures capture up to
   eight free variables each, fib's one. *)
let test_psort_alloc_bound () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  (* a minor collection first, so the counters include the minor heap *)
  let stat () =
    Gc.minor ();
    Gc.quick_stat ()
  in
  let words_and_tasks f =
    let s0 = stat () and t0 = (Pool.counters pool).tasks_run in
    f ();
    let s1 = stat () and t1 = (Pool.counters pool).tasks_run in
    let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
    (words s1 -. words s0, t1 - t0)
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       ignore (Pool.run pool (fun () -> fib 10));
       let fib_words, fib_tasks =
         words_and_tasks (fun () -> ignore (Sys.opaque_identity (Pool.run pool (fun () -> fib 20))))
       in
       let per_fork = fib_words /. float_of_int fib_tasks in
       let n = 100_000 in
       let rng = Dfd_structures.Prng.create 11 in
       let input = Array.init n (fun _ -> Dfd_structures.Prng.int rng 1_000_000) in
       (* the inline compare, then the compare through a closure *)
       List.iter
         (fun (order, cmp) ->
            let arr = Array.copy input in
            let words, tasks =
              words_and_tasks (fun () ->
                  Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:512 ~cmp arr))
            in
            checkb (order ^ " sorted") true (Dfd_runtime.Psort.sorted ~cmp:Int.compare arr);
            let bound = float_of_int (n + 1) +. (float_of_int tasks *. (per_fork +. 16.)) +. 1024. in
            checkb
              (Printf.sprintf "%s: %.0f words for n=%d and %d tasks (%.1f words per fork), at most %.0f"
                 order words n tasks per_fork bound)
              true (words <= bound))
         [ ("Int.compare", Int.compare); ("closure", fun a b -> Int.compare a b) ])

exception Boom

let test_exception_propagation () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checkb (name ^ " child exn") true
             (try
                ignore
                  (Pool.run pool (fun () ->
                       Pool.fork_join (fun () -> raise Boom) (fun () -> 1)));
                false
              with Boom -> true);
           checkb (name ^ " parent exn") true
             (try
                ignore
                  (Pool.run pool (fun () ->
                       Pool.fork_join (fun () -> 1) (fun () -> raise Boom)));
                false
              with Boom -> true);
           (* the pool survives exceptions *)
           checki (name ^ " still works") 55 (Pool.run pool (fun () -> fib 10))))
    policies

exception Boom_inline

(* On a pool with no worker domains nothing is ever stolen, so every
   join takes its branch back and runs it inline, without the branch's
   promise.  The branch's exception must still reach the caller of
   [run], be counted once and be noted as a [task_exn] fault; when both
   branches raise, the forked branch's exception still wins. *)
let test_inline_join_exception () =
  let tracer = Dfd_trace.Tracer.create ~lanes:2 () in
  let pool = Pool.create ~domains:0 ~tracer Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       let task_exn_events () =
         List.length
           (List.filter
              (fun e -> e.Dfd_trace.Event.kind = Dfd_trace.Event.Fault_injected { fault = "task_exn" })
              (Dfd_trace.Tracer.events tracer))
       in
       checkb "forked branch's exception reaches run" true
         (match Pool.run pool (fun () -> Pool.fork_join (fun () -> raise Boom) (fun () -> 1)) with
          | _ -> false
          | exception Boom -> true);
       checki "task_exns rose by exactly 1" 1 (Pool.counters pool).Pool.task_exns;
       checki "one task_exn fault event" 1 (task_exn_events ());
       checkb "forked branch's exception wins over the inline one" true
         (match
            Pool.run pool (fun () ->
                Pool.fork_join (fun () -> raise Boom) (fun () -> raise Boom_inline))
          with
          | _ -> false
          | exception Boom -> true
          | exception Boom_inline -> false);
       checki "nothing was stolen" 0 (Pool.counters pool).Pool.steals;
       checki "pool still works" 55 (Pool.run pool (fun () -> fib 10)))

let rec forks_of_fib n = if n < 2 then 0 else 1 + forks_of_fib (n - 1) + forks_of_fib (n - 2)

(* The unstolen fork's exact sync-op cost on a pool with no worker
   domains: 0.  Its push and its join's pop touch only the private part,
   and with no other worker nothing is ever requested, parked or
   published.  The first fork puts worker 0's deque in R, where thieves
   would look for it: a cost per deque lifetime, paid once here, since
   the deque is never emptied by a take and so never abandoned. *)
let test_sync_ops_per_fork () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       checki "fib 10" 55 (Pool.run pool (fun () -> fib 10));
       checki "one R insert" 1 (Pool.counters pool).Pool.r_inserts;
       let insert = (Pool.counters pool).Pool.sync_ops in
       checki "fib 20" 6765 (Pool.run pool (fun () -> fib 20));
       checki "0 per fork" 0 ((Pool.counters pool).Pool.sync_ops - insert);
       checki "still one R insert" 1 (Pool.counters pool).Pool.r_inserts)

(* Allocation per unstolen fork, measured as 21 words with [fib] above
   (its two thunks included): nothing on the fork path may box again,
   such as a task wrapped as [Some] in a deque cell, a sync-op cell
   wrapped as [Some] per call or a result stored in a promise that only
   a thief would read.  Counts words, not time. *)
let test_fork_alloc_bound () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       ignore (Pool.run pool (fun () -> fib 10));
       let w0 = Gc.minor_words () in
       ignore (Sys.opaque_identity (Pool.run pool (fun () -> fib 20)));
       let words = Gc.minor_words () -. w0 in
       let forks = forks_of_fib 20 in
       (* a few hundred words of slack for [run]'s own fixed cost *)
       checkb
         (Printf.sprintf "%.0f words for %d forks, at most 21 per fork" words forks)
         true
         (words <= float_of_int ((21 * forks) + 256)))

(* Retention: a join pops its branch without clearing the slot, so the
   finished closure stays in the private stack until its worker runs dry
   and clears it (or more than four pile up).  Each forked branch below captures a block with a
   finaliser; once the worker that ran the fork has gone idle, a full
   major collection must free it.  [collected] polls a bounded number of
   times: a worker domain clears at its first empty-handed take, which
   follows [run]'s return by a scheduling delay, not at a fixed time. *)
let watched finalised =
  let blk = Sys.opaque_identity (ref 1) in
  Gc.finalise (fun _ -> Atomic.incr finalised) blk;
  blk

let collected finalised ~want cond =
  let rec go i =
    Gc.full_major ();
    if (Atomic.get finalised < want || not (cond ())) && i < 200 then begin
      Unix.sleepf 0.005;
      go (i + 1)
    end
  in
  go 1

let test_fork_closure_released_inline () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       let finalised = Atomic.make 0 in
       let stale_inside =
         Pool.run pool (fun () ->
             let blk = watched finalised in
             let a, b = Pool.fork_join (fun () -> !blk) (fun () -> 2) in
             checki "fork_join" 3 (a + b);
             Pool.For_testing.stale_slots pool 0)
       in
       checkb "the join left its branch in the stack" true (stale_inside > 0);
       checki "no stale slot once run returns" 0 (Pool.For_testing.stale_slots pool 0);
       collected finalised ~want:1 (fun () -> true);
       checki "the branch's block was collected" 1 (Atomic.get finalised))

let test_fork_closure_released_by_idle_worker () =
  let pool = Pool.create ~domains:1 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       let finalised = Atomic.make 0 in
       let rec tree blk d =
         if d = 0 then !blk
         else
           let a, b = Pool.fork_join (fun () -> tree blk (d - 1)) (fun () -> tree blk (d - 1)) in
           a + b
       in
       (* run until worker 1 has stolen, so its own forks used its stack *)
       let runs = ref 0 in
       spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
           incr runs;
           checki "tree" 4096 (Pool.run pool (fun () -> tree (watched finalised) 12));
           (Pool.counters pool).Pool.steals > 0);
       collected finalised ~want:!runs (fun () -> Pool.For_testing.stale_slots pool 1 = 0);
       checki "no stale slot on worker 0" 0 (Pool.For_testing.stale_slots pool 0);
       checki "no stale slot on idle worker 1" 0 (Pool.For_testing.stale_slots pool 1);
       checki "every run's block was collected" !runs (Atomic.get finalised))

let test_nested_run_rejected () =
  with_pool Pool.Work_stealing (fun pool ->
      checkb "nested run fails" true
        (try
           Pool.run pool (fun () -> Pool.run pool (fun () -> ()));
           false
         with Pool.Nested_run -> true);
      (* the failed nested call must not poison the outer context *)
      checki "outer run still works" 55 (Pool.run pool (fun () -> fib 10)))

let test_fork_join_outside_run_rejected () =
  checkb "fork_join outside run" true
    (try
       ignore (Pool.fork_join (fun () -> 1) (fun () -> 2));
       false
     with Pool.Not_in_pool -> true)

let test_alloc_hint_quota () =
  with_pool (Pool.Dfdeques { quota = 100 }) (fun pool ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~lo:0 ~hi:64 (fun _ -> Pool.alloc_hint 64));
      let giveups = (Pool.counters pool).Pool.quota_giveups in
      checkb "quota giveups occur under DFDeques" true (giveups >= 0))

let test_rank_error_instrumented () =
  with_pool (Pool.Dfdeques { quota = 2048 }) (fun pool ->
      ignore (Pool.run pool (fun () -> fib 16));
      let c = Pool.counters pool in
      let h = Pool.rank_error pool in
      (* one rank-error sample per successful steal, and the membership
         counters reconcile: every reaped deque was first inserted *)
      checki "rank samples = steals" c.Pool.steals (Stats.Histogram.count h);
      checkb "inserts cover removes" true (c.Pool.r_inserts >= c.Pool.r_removes);
      checkb "removes non-negative" true (c.Pool.r_removes >= 0));
  (* a WS pool is DFDeques with K = ∞: the same fact, with a steal forced
     so it is not vacuous *)
  with_pool Pool.Work_stealing (fun pool ->
      ignore (Pool.run pool (fun () -> fib 12));
      forced_steal pool;
      let steals = (Pool.counters pool).Pool.steals in
      checkb "WS stole" true (steals > 0);
      checki "WS rank samples = steals" steals (Stats.Histogram.count (Pool.rank_error pool)))

(* Every dfd_pool_* family a scrape declares, with its OpenMetrics type. *)
let pool_families =
  List.map
    (fun n -> ("dfd_pool_" ^ n, Om_util.Counter))
    [
      "steals_total";
      "steal_failures_total";
      "local_pops_total";
      "quota_giveups_total";
      "tasks_total";
      "task_exns_total";
      "alloc_bytes_total";
      "parks_total";
      "deques_created_total";
      "deques_deleted_total";
      "sync_ops";
    ]
  @ [ ("dfd_pool_steal_rank_error", Om_util.Histogram) ]
  @ List.map
      (fun n -> ("dfd_pool_" ^ n, Om_util.Gauge))
      [ "parked_workers"; "workers"; "quota_bytes"; "r_deques" ]

(* The pool's registry series are probes over its own counters: once the
   workers are joined, each series equals the field it reads. *)
let test_registry_series () =
  List.iter
    (fun (policy, name) ->
       let registry = Registry.create () in
       let pool = Pool.create ~domains:1 ~registry policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            ignore (Pool.run pool (fun () -> fib 16));
            let arr = Array.init 5_000 (fun i -> (i * 7919) mod 5_003) in
            Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:64 ~cmp:compare arr);
            forced_steal pool);
       let c = Pool.counters pool in
       let samples = Registry.snapshot registry in
       let sample n =
         match List.find_opt (fun s -> s.Registry.name = n) samples with
         | Some s -> s.Registry.value
         | None -> Alcotest.fail (name ^ ": no series " ^ n)
       in
       List.iter
         (fun (n, field) ->
            match sample n with
            | Registry.Counter_v v -> checki (name ^ " " ^ n) field v
            | _ -> Alcotest.fail (name ^ ": " ^ n ^ " is not a counter"))
         [
           ("dfd_pool_steals_total", c.Pool.steals);
           ("dfd_pool_steal_failures_total", c.Pool.steal_failures);
           ("dfd_pool_local_pops_total", c.Pool.local_pops);
           ("dfd_pool_quota_giveups_total", c.Pool.quota_giveups);
           ("dfd_pool_tasks_total", c.Pool.tasks_run);
           ("dfd_pool_task_exns_total", c.Pool.task_exns);
           ("dfd_pool_alloc_bytes_total", c.Pool.alloc_bytes);
           ("dfd_pool_parks_total", c.Pool.parks);
           ("dfd_pool_deques_created_total", c.Pool.r_inserts);
           ("dfd_pool_deques_deleted_total", c.Pool.r_removes);
           ("dfd_pool_sync_ops", c.Pool.sync_ops);
         ];
       checkb (name ^ " stole") true (c.Pool.steals > 0);
       checkb (name ^ " hinted") true (c.Pool.alloc_bytes > 0);
       (match sample "dfd_pool_steal_rank_error" with
        | Registry.Hist_v h ->
          checki (name ^ " rank-error samples = steals") c.Pool.steals h.Registry.h_count
        | _ -> Alcotest.fail (name ^ ": rank error is not a histogram"));
       let om = Om_util.parse (Dfd_obs.Openmetrics.render samples) in
       List.iter
         (fun (fam, typ) ->
            match Om_util.family om fam with
            | Some f -> checkb (name ^ " " ^ fam ^ " # TYPE") true (f.Om_util.f_type = typ)
            | None -> Alcotest.fail (name ^ ": family " ^ fam ^ " not declared"))
         pool_families)
    policies

(* The paper's fact about DFDeques with K = ∞, which a WS pool runs:
   never a quota give-up, and never more than p deques in R, since each
   worker owns at most one and gives it up only once it is empty.  |R| is
   polled from the test thread while fib and psort run on a pool driven
   from another domain, and read again once the pool is quiescent. *)
let test_ws_r_at_most_p () =
  let p = default_domains + 1 in
  with_pool Pool.Work_stealing (fun pool ->
      let max_r = ref 0 in
      let observe () = max_r := max !max_r (Pool.For_testing.r_size pool) in
      let run_polled name f =
        let finished = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              Fun.protect ~finally:(fun () -> Atomic.set finished true) (fun () -> Pool.run pool f))
        in
        spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
            observe ();
            Atomic.get finished);
        Domain.join d;
        let r = Pool.For_testing.r_size pool in
        checkb (Printf.sprintf "%s: |R| = %d <= p = %d once quiescent" name r p) true (r <= p)
      in
      run_polled "fib" (fun () -> checki "fib 22" 17711 (fib 22));
      let rng = Dfd_structures.Prng.create 7 in
      let arr = Array.init 100_000 (fun _ -> Dfd_structures.Prng.int rng 1_000_000) in
      run_polled "psort" (fun () -> Dfd_runtime.Psort.sort ~cutoff:512 ~cmp:compare arr);
      checkb "psort sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare arr);
      checkb (Printf.sprintf "max |R| = %d <= p = %d while running" !max_r p) true
        (!max_r >= 1 && !max_r <= p);
      checki "no quota give-ups" 0 (Pool.counters pool).Pool.quota_giveups)

let test_stats_counters () =
  with_pool Pool.Work_stealing (fun pool ->
      ignore (Pool.run pool (fun () -> fib 15));
      forced_steal pool;
      let c = Pool.counters pool in
      checkb "tasks ran" true (c.Pool.tasks_run > 0);
      (* the snapshot lists one [name=value] line per field of the
         [Pool.counters] record (idle workers keep polling, so only the
         names are pinned) *)
      let s = Pool.snapshot pool in
      List.iter
        (fun k -> checkb ("snapshot lists " ^ k) true (has_sub s ("  " ^ k ^ "=")))
        [
          "steals";
          "steal_failures";
          "local_pops";
          "quota_giveups";
          "tasks_run";
          "task_exns";
          "alloc_bytes";
          "parks";
          "r_inserts";
          "r_removes";
          "sync_ops";
        ];
      checkb "WS counts its sync ops" true (c.Pool.sync_ops > 0))

(* Both policies count their scheduling sync ops: a run with a steal
   reports a positive total, and the count only grows — through a second
   read and a second such run.  Idle worker domains keep polling between
   reads, so successive reads are ordered, not equal. *)
let test_sync_ops_counted policy () =
  with_pool policy (fun pool ->
      let sync_ops () = (Pool.counters pool).Pool.sync_ops in
      forced_steal pool;
      let first = sync_ops () in
      checkb "a steal counts sync ops" true (first > 0);
      let again = sync_ops () in
      checkb "a second read is no lower" true (again >= first);
      forced_steal pool;
      checkb "a second run adds to the count" true (sync_ops () > again))

(* Every deque call charges the calling worker's own cell: on a pool
   with no worker domains, worker 0 runs a fork_join tree alone, then
   publishes a task to its public deque and takes it back, so all the
   sync ops land in its cell and worker 1's cell stays at 0. *)
let test_sync_ops_per_worker policy () =
  let pool = Pool.For_testing.create_detached ~workers:2 policy in
  Pool.For_testing.as_worker pool 0 (fun () ->
      checki "fib 12" 144 (fib 12);
      Pool.For_testing.push pool 0 ignore;
      checkb "took the published task" true (Pool.For_testing.help pool 0));
  let c0 = !(Pool.For_testing.sync_cell pool 0) in
  checkb "worker 0 counted its sync ops" true (c0 > 0);
  checki "idle worker 1 counted none" 0 !(Pool.For_testing.sync_cell pool 1);
  checki "total is the sum of the cells" c0 (Pool.counters pool).Pool.sync_ops

(* The sync-op cells' layout rule: no two workers' cells within 128
   bytes.  An address is read by reinterpreting a ref as an int, so the
   difference of two such reads is half the byte distance; a minor
   collection first puts the cells in the major heap, where blocks do
   not move.  Garbage blocks of 1 to 24 fields allocated first leave
   holes in the free slots of the major heap's size classes, so the rule
   must hold on a used heap, not only on a fresh one. *)
let test_sync_cells_apart policy () =
  let addr (r : int ref) = 2 * (Obj.magic r : int) in
  for round = 1 to 20 do
    let junk = Array.init (round * 1000) (fun i -> Array.make (1 + (i mod 24)) i) in
    Gc.minor ();
    let kept = Array.init (round * 100) (fun i -> junk.(i * 7 mod Array.length junk)) in
    Gc.full_major ();
    let pool = Pool.For_testing.create_detached ~workers:4 policy in
    let cells = List.init 4 (Pool.For_testing.sync_cell pool) in
    Gc.minor ();
    List.iteri
      (fun i a ->
         List.iteri
           (fun j b ->
              if i < j then
                checkb
                  (Printf.sprintf "round %d: cells %d and %d >= 128 bytes apart" round i j)
                  true
                  (abs (addr a - addr b) >= 128))
           cells)
      cells;
    ignore (Sys.opaque_identity kept)
  done

let test_heartbeat_monotonic () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " heartbeat starts at 0") 0 (Pool.heartbeat pool);
           ignore (Pool.run pool (fun () -> fib 12));
           let h1 = Pool.heartbeat pool in
           checkb (name ^ " heartbeat advanced") true (h1 > 0);
           ignore (Pool.run pool (fun () -> fib 12));
           let h2 = Pool.heartbeat pool in
           checkb (name ^ " heartbeat monotonic") true (h2 > h1);
           checki (name ^ " heartbeat = tasks_run") (Pool.counters pool).Pool.tasks_run h2))
    policies

let test_many_sequential_runs () =
  with_pool (Pool.Dfdeques { quota = 512 }) (fun pool ->
      for i = 1 to 20 do
        checki "repeat" (i * 10) (Pool.run pool (fun () -> i * 10))
      done)

let test_deep_nesting () =
  (* a fork chain deeper than any deque fast path *)
  let rec chain d = if d = 0 then 1 else fst (Pool.fork_join (fun () -> chain (d - 1)) (fun () -> 0)) + 0 in
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " deep chain") 1 (Pool.run pool (fun () -> chain 500))))
    policies

(* A worker abandons its deque only inside a take, and only with an
   empty private part, so that part must be empty at every top-of-loop
   take ({!Pool.For_testing.help}).  Worker 0 forks fib trees; two
   helper domains play workers 1 and 2 through the top-of-loop step and
   check their own private part before every take.
   Stolen fib branches fork too, so the helpers' private parts are used
   in between.  Worker 0 keeps forking until the helpers have stolen a
   few times, so the check is not vacuous. *)
let test_private_empty_at_top_take policy () =
  let pool = Pool.For_testing.create_detached ~workers:3 policy in
  let finished = Atomic.make false in
  let takes = Array.init 3 (fun _ -> Atomic.make 0) in
  let nonempty = Atomic.make 0 in
  let helper i =
    Domain.spawn (fun () ->
        Pool.For_testing.as_worker pool i (fun () ->
            while not (Atomic.get finished) do
              if Pool.For_testing.private_len pool i <> 0 then Atomic.incr nonempty;
              if Pool.For_testing.help pool i then Atomic.incr takes.(i)
              else Domain.cpu_relax ()
            done))
  in
  let helpers = [ helper 1; helper 2 ] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      List.iter Domain.join helpers)
    (fun () ->
       Pool.For_testing.as_worker pool 0 (fun () ->
           spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
               checki "fib 16" 987 (fib 16);
               (Pool.counters pool).Pool.steals >= 4)));
  checki "no top-of-loop take with a nonempty private part" 0 (Atomic.get nonempty);
  checkb "the helpers took tasks" true (Atomic.get takes.(1) + Atomic.get takes.(2) > 0);
  for w = 0 to 2 do
    checki (Printf.sprintf "worker %d private part empty after the run" w) 0
      (Pool.For_testing.private_len pool w)
  done

let test_zero_extra_domains () =
  (* degenerate pool: caller is the only worker; everything runs inline *)
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> checki "fib on 1 worker" 610 (Pool.run pool (fun () -> fib 15)))

(* ------------------------------------------------------------------ *)
(* Exceptions under stealing, timeouts                                 *)
(* ------------------------------------------------------------------ *)

exception Leaf_failed of int

(* Property (per seed, both policies): a user exception raised at one
   seeded leaf of a wide reduction reaches the caller of [run], and the
   same pool then completes a clean run.  Over 5,000 leaves the left
   halves near the root are stolen, so a leaf in one of them raises on a
   thief: [fulfill] writes [Failed] and the parent's [await] re-raises.
   No leaf but the last lies only on inline branches, so some forked
   branch raises and [task_exns] counts it.  Steals are not asserted:
   they depend on timing. *)
let qcheck_user_exn_propagates =
  let n = 5_000 in
  QCheck.Test.make ~count:30 ~name:"user exn at a seeded leaf reaches run caller; pool reusable"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let leaf = seed mod (n - 1) in
       List.for_all
         (fun (policy, _) ->
            let pool = Pool.create ~domains:default_domains policy in
            Fun.protect
              ~finally:(fun () -> Pool.shutdown pool)
              (fun () ->
                 let propagated =
                   match
                     Pool.run pool (fun () ->
                         Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i ->
                             if i = leaf then raise (Leaf_failed i) else i))
                   with
                   | _ -> false
                   | exception Leaf_failed i -> i = leaf
                 in
                 let counted = (Pool.counters pool).Pool.task_exns >= 1 in
                 let clean = Pool.run pool (fun () -> fib 12) = 144 in
                 propagated && counted && clean))
         policies)

(* An endlessly forking computation: only a cancel ends it. *)
let endless () =
  let rec loop () =
    ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
    loop ()
  in
  loop ()

(* A run under a deadline, enforced the way the service's driver does
   it: a watcher domain waits [after] seconds, then re-asserts
   [Pool.cancel] until the run returns, since a cancel that lands before
   [run]'s entry is cleared by it.  The pool keeps no clock of its own.
   Reports how the run ended. *)
let run_watched pool ~after f =
  let finished = Atomic.make false in
  let watcher =
    Domain.spawn (fun () ->
        let due = Unix.gettimeofday () +. after in
        while not (Atomic.get finished) do
          if Unix.gettimeofday () > due then Pool.cancel pool;
          Unix.sleepf 0.001
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watcher)
    (fun () ->
       match Pool.run pool f with
       | v -> Ok v
       | exception Pool.Cancelled -> Error "cancelled"
       | exception e -> Error (Printexc.to_string e))

let check_outcome name expect got =
  Alcotest.(check string) name expect
    (match got with Ok _ -> "returned" | Error m -> m)

let test_timeout_fires_and_pool_reusable () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           check_outcome (name ^ " timeout fires") "cancelled" (run_watched pool ~after:0.05 endless);
           (* every fork_join frame joined its branch while unwinding *)
           for w = 0 to default_domains do
             checki (Printf.sprintf "%s worker %d private part empty" name w) 0
               (Pool.For_testing.private_len pool w)
           done;
           (* drained and reusable *)
           checki (name ^ " clean run after timeout") 55 (Pool.run pool (fun () -> fib 10))))
    policies

(* A run's own task may cancel it: no watcher and no clock, so the
   cancel deterministically precedes the next fork_join, which raises
   [Cancelled]; the run drains, raises [Cancelled], and the next run
   clears the flag and completes. *)
let test_cancel_from_inside policy () =
  with_pool policy (fun pool ->
      let before = Atomic.make 0 in
      check_outcome "cancel from inside the run" "cancelled"
        (match
           Pool.run pool (fun () ->
               Atomic.set before (fib 12);
               Pool.cancel pool;
               (* bounded, so a cancel that is not seen fails the check
                  with "returned" instead of hanging *)
               for _ = 1 to 1_000_000 do
                 ignore (Pool.fork_join (fun () -> ()) (fun () -> ()))
               done)
         with
         | () -> Ok ()
         | exception Pool.Cancelled -> Error "cancelled"
         | exception e -> Error (Printexc.to_string e));
      checki "work before the cancel completed" 144 (Atomic.get before);
      for w = 0 to default_domains do
        checki (Printf.sprintf "worker %d private part empty" w) 0
          (Pool.For_testing.private_len pool w)
      done;
      checki "clean run after the cancel" 55 (Pool.run pool (fun () -> fib 10));
      checkb "next run cleared the flag" true (has_sub (Pool.snapshot pool) "cancelled=false"))

(* Regression: a pool must survive *consecutive* cancelled runs (the
   drain after the first must leave no stale cancellation state), and a
   cancelled run reports [Cancelled], nothing else. *)
let test_two_consecutive_timeouts () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           check_outcome (name ^ " first timeout") "cancelled" (run_watched pool ~after:0.05 endless);
           check_outcome (name ^ " second timeout") "cancelled"
             (run_watched pool ~after:0.05 endless);
           checki (name ^ " reusable after two timeouts") 55 (Pool.run pool (fun () -> fib 10))))
    policies

let test_alloc_hint_outside_run () =
  checkb "alloc_hint outside run raises Not_in_pool" true
    (try
       Pool.alloc_hint 64;
       false
     with Pool.Not_in_pool -> true)

(* A negative hint is rejected before it touches any counter: it would
   refund quota, and from K = max_int overflow it into a give-up. *)
let test_alloc_hint_negative () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checkb (name ^ " negative alloc_hint raises Invalid_argument") true
             (Pool.run pool (fun () ->
                  match Pool.alloc_hint (-1) with
                  | () -> false
                  | exception Invalid_argument _ -> true));
           let c = Pool.counters pool in
           checki (name ^ " alloc_bytes untouched") 0 c.Pool.alloc_bytes;
           checki (name ^ " no quota give-up") 0 c.Pool.quota_giveups;
           let k =
             match policy with Pool.Dfdeques { quota } -> quota | Pool.Work_stealing -> max_int
           in
           checkb (name ^ " worker 0's quota untouched") true
             (has_sub (Pool.snapshot pool) (Printf.sprintf "quota_left[worker 0]=%d\n" k))))
    policies

let test_alloc_bytes_counter () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           Pool.run pool (fun () ->
               Pool.parallel_for ~lo:0 ~hi:32 (fun _ -> Pool.alloc_hint 100));
           checki (name ^ " alloc_bytes counts hints") 3200
             (Pool.counters pool).Pool.alloc_bytes))
    policies

(* No cancel reaches a run it was not aimed at: one issued while no run
   is active, as a watcher's late cancel can be, is cleared by the next
   run's entry, and a deadline that has not passed cancels nothing. *)
let test_timeout_not_spurious () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           Pool.cancel pool;
           checki (name ^ " cancel while idle does not reach the next run") 6765
             (Pool.run pool (fun () -> fib 20));
           check_outcome (name ^ " cancelled run") "cancelled" (run_watched pool ~after:0.0 endless);
           Pool.cancel pool;
           checki (name ^ " stale cancel after a cancelled run") 6765
             (Pool.run pool (fun () -> fib 20));
           check_outcome (name ^ " no spurious timeout") "returned"
             (run_watched pool ~after:60.0 (fun () -> fib 20))))
    policies

let test_background_run_observed () =
  (* a run driven from another domain, observed by watchdog-bounded
     polling: completion must become visible without unbounded waiting *)
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let res = Atomic.make 0 in
           let d = Domain.spawn (fun () -> Atomic.set res (Pool.run pool (fun () -> fib 16))) in
           spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () -> Atomic.get res <> 0);
           Domain.join d;
           checki (name ^ " background fib") 987 (Atomic.get res);
           checkb (name ^ " heartbeat advanced") true (Pool.heartbeat pool > 0)))
    policies

let test_snapshot_mentions_state () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           ignore (Pool.run pool (fun () -> fib 10));
           let s = Pool.snapshot pool in
           let has = has_sub s in
           checkb (name ^ " snapshot has counters") true (has "tasks_run");
           checkb (name ^ " snapshot has queue state") true (has "queued=0");
           checkb (name ^ " snapshot has slot 1's domain") true (has "slot 1: domain #");
           checkb (name ^ " snapshot has slot 1's recall flag") true (has "recall=false")))
    policies

(* ------------------------------------------------------------------ *)
(* Worker domains borrowed from the process-wide set                  *)
(* ------------------------------------------------------------------ *)

(* Runs [pool] until some task has run on each of its worker slots, or
   fails with the pool's snapshot.  Each run forks leaves that do a
   little work, so a domain that joins the run late still finds some. *)
let see_every_worker pool ~workers =
  let seen = Array.init workers (fun _ -> Atomic.make false) in
  spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~lo:0 ~hi:64 (fun _ ->
              Atomic.set seen.(Pool.For_testing.worker_id ()) true;
              ignore (Sys.opaque_identity (fib 8))));
      Array.for_all Atomic.get seen)

(* perfbench's fib and psort alternate a WS and a DFD pool of one
   worker domain each: the second pool's run recalls the first pool's
   domain instead of spawning, so the process holds one worker domain. *)
let test_alternating_pools_share_a_domain () =
  checki "no worker domain before" 0 (Pool.For_testing.worker_domains ());
  let pools = List.map (fun (policy, _) -> Pool.create ~domains:1 policy) policies in
  Fun.protect
    ~finally:(fun () -> List.iter Pool.shutdown pools)
    (fun () ->
       for _ = 1 to 25 do
         List.iter (fun pool -> checki "fib 15" 610 (Pool.run pool (fun () -> fib 15))) pools
       done;
       checki "one worker domain after 50 alternating runs" 1
         (Pool.For_testing.worker_domains ()));
  checki "no worker domain after both shutdowns" 0 (Pool.For_testing.worker_domains ())

(* A domain stays attached to its pool between runs, so back-to-back
   runs take nothing from anywhere. *)
let test_back_to_back_runs_recall_nothing () =
  with_pool ~domains:1 Pool.Work_stealing (fun pool ->
      checki "first run" 610 (Pool.run pool (fun () -> fib 15));
      let recalls = Pool.For_testing.recalls () in
      let domains = Pool.For_testing.worker_domains () in
      for _ = 1 to 50 do
        checki "fib 15" 610 (Pool.run pool (fun () -> fib 15))
      done;
      checki "no recall" recalls (Pool.For_testing.recalls ());
      checki "no new domain" domains (Pool.For_testing.worker_domains ()))

(* Two pools driven at once from two domains: neither run recalls the
   other's domain while that run is in progress, so both reach full
   width; and both shutdowns leave no worker domain behind. *)
let test_concurrent_pools_full_width () =
  let pools = List.map (fun (policy, _) -> Pool.create ~domains:1 policy) policies in
  let drivers =
    List.map (fun pool -> Domain.spawn (fun () -> see_every_worker pool ~workers:2)) pools
  in
  List.iter Domain.join drivers;
  List.iter Pool.shutdown pools;
  checki "no worker domain after both shutdowns" 0 (Pool.For_testing.worker_domains ())

(* A killed pool's domain stuck in a task is outside the bound, so a
   fresh pool spawns its own and runs at full width; the stuck domain
   quits once its task returns, and the shutdowns join everything. *)
let test_kill_then_fresh_pool_full_width () =
  let old = Pool.create ~domains:1 Pool.Work_stealing in
  let stolen = Atomic.make false and release = Atomic.make false in
  let driver =
    Domain.spawn (fun () ->
        Pool.run old (fun () ->
            ignore
              (Pool.fork_join
                 (fun () ->
                    Atomic.set stolen true;
                    while not (Atomic.get release) do
                      Domain.cpu_relax ()
                    done)
                 (fun () ->
                    while not (Atomic.get stolen) do
                      ignore (Pool.fork_join ignore ignore)
                    done))))
  in
  spin_until ~snapshot:(fun () -> Pool.snapshot old) (fun () -> Atomic.get stolen);
  Pool.kill old;
  let fresh = Pool.create ~domains:1 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join driver;
      Pool.shutdown old;
      Pool.shutdown fresh)
    (fun () ->
       see_every_worker fresh ~workers:2;
       checki "the stuck domain and the fresh pool's" 2 (Pool.For_testing.worker_domains ()));
  checki "no worker domain after both shutdowns" 0 (Pool.For_testing.worker_domains ())

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "fib" `Quick test_fib;
          Alcotest.test_case "fork_join order" `Quick test_fork_join_order;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for_sum;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "parallel sort" `Quick test_psort_correct;
          Alcotest.test_case "sort edge orders" `Quick test_psort_already_sorted_and_reverse;
          Alcotest.test_case "sort duplicates" `Quick test_psort_duplicates_and_custom_cmp;
          Alcotest.test_case "empty ranges" `Quick test_empty_ranges;
          Alcotest.test_case "exceptions" `Quick test_exception_propagation;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "fork_join outside run" `Quick test_fork_join_outside_run_rejected;
          Alcotest.test_case "alloc_hint quota" `Quick test_alloc_hint_quota;
          Alcotest.test_case "stats" `Quick test_stats_counters;
          Alcotest.test_case "WS cancel from inside a run" `Quick
            (test_cancel_from_inside Pool.Work_stealing);
          Alcotest.test_case "DFD cancel from inside a run" `Quick
            (test_cancel_from_inside (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "WS sync ops counted" `Quick
            (test_sync_ops_counted Pool.Work_stealing);
          Alcotest.test_case "DFD sync ops counted" `Quick
            (test_sync_ops_counted (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "WS sync ops per worker" `Quick
            (test_sync_ops_per_worker Pool.Work_stealing);
          Alcotest.test_case "DFD sync ops per worker" `Quick
            (test_sync_ops_per_worker (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "sync cells 128 bytes apart" `Quick
            (test_sync_cells_apart Pool.Work_stealing);
          Alcotest.test_case "DFD sync cells 128 bytes apart" `Quick
            (test_sync_cells_apart (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "inline join exception" `Quick test_inline_join_exception;
          Alcotest.test_case "sync ops per unstolen fork" `Quick test_sync_ops_per_fork;
          Alcotest.test_case "allocation per unstolen fork" `Quick test_fork_alloc_bound;
          Alcotest.test_case "finished fork released at run exit" `Quick
            test_fork_closure_released_inline;
          Alcotest.test_case "finished fork released by idle worker" `Quick
            test_fork_closure_released_by_idle_worker;
          Alcotest.test_case "rank error instrumented" `Quick test_rank_error_instrumented;
          Alcotest.test_case "registry series match counters" `Quick test_registry_series;
          Alcotest.test_case "WS |R| <= p, no quota give-ups" `Quick test_ws_r_at_most_p;
          Alcotest.test_case "heartbeat" `Quick test_heartbeat_monotonic;
          Alcotest.test_case "sequential runs" `Quick test_many_sequential_runs;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "zero extra domains" `Quick test_zero_extra_domains;
          Alcotest.test_case "WS private part empty at top-of-loop takes" `Quick
            (test_private_empty_at_top_take Pool.Work_stealing);
          Alcotest.test_case "DFD private part empty at top-of-loop takes" `Quick
            (test_private_empty_at_top_take (Pool.Dfdeques { quota = 64 }));
          Alcotest.test_case "sort rejects cutoff < 1" `Quick test_psort_rejects_cutoff;
          Alcotest.test_case "sort property" `Quick test_psort_qcheck;
          Alcotest.test_case "sort allocation bound" `Quick test_psort_alloc_bound;
          Alcotest.test_case "sort inline order" `Quick test_psort_inline_order;
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_user_exn_propagates;
          Alcotest.test_case "timeout fires, pool reusable" `Quick
            test_timeout_fires_and_pool_reusable;
          Alcotest.test_case "two consecutive timeouts" `Quick test_two_consecutive_timeouts;
          Alcotest.test_case "alloc_hint outside run" `Quick test_alloc_hint_outside_run;
          Alcotest.test_case "negative alloc_hint rejected" `Quick test_alloc_hint_negative;
          Alcotest.test_case "alloc_bytes counter" `Quick test_alloc_bytes_counter;
          Alcotest.test_case "timeout not spurious" `Quick test_timeout_not_spurious;
          Alcotest.test_case "background run observed" `Quick test_background_run_observed;
          Alcotest.test_case "snapshot" `Quick test_snapshot_mentions_state;
        ] );
      ( "domains",
        [
          Alcotest.test_case "alternating pools share one domain" `Quick
            test_alternating_pools_share_a_domain;
          Alcotest.test_case "back-to-back runs recall nothing" `Quick
            test_back_to_back_runs_recall_nothing;
          Alcotest.test_case "concurrent pools reach full width" `Quick
            test_concurrent_pools_full_width;
          Alcotest.test_case "fresh pool full width after kill" `Quick
            test_kill_then_fresh_pool_full_width;
        ] );
    ]
