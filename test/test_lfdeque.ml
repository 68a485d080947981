(* Tests for the CAS-only DFDeques deque (Dfd_structures.Lfdeque).

   Sequential deque laws, a concurrent multiset property under real
   Domains (every pushed element obtained exactly once, by the owner's
   pops, a thief's steals or the final drain), and wraparound
   regressions via the biased-start constructor.  On top of those, the
   DFDeques-specific
   surface: the sticky ownership certificate, the stability of the
   [is_dead] death certificate, the sync-op accounting cells, and a
   multi-deque stress group (N owners x M thieves, capped at 4 domains)
   where thieves roam across deques — the pool's actual usage pattern. *)

module Lfdeque = Dfd_structures.Lfdeque

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sequential laws                                                     *)
(* ------------------------------------------------------------------ *)

let test_lifo_owner () =
  let q = Lfdeque.create () in
  for i = 1 to 100 do
    Lfdeque.push q i
  done;
  for i = 100 downto 1 do
    checki "LIFO pop" i (Option.get (Lfdeque.pop q))
  done;
  checkb "empty after" true (Lfdeque.pop q = None)

(* push/pop churn that wraps the circular buffer many times *)
let test_interleaved_push_pop () =
  let q = Lfdeque.create ~min_capacity:2 () in
  let next = ref 0 in
  for _ = 1 to 50 do
    for _ = 1 to 7 do
      Lfdeque.push q !next;
      incr next
    done;
    for _ = 1 to 5 do
      ignore (Lfdeque.pop q)
    done
  done;
  checki "residual length after churn" 100 (Lfdeque.length q);
  let rec drain last =
    match Lfdeque.pop q with
    | None -> ()
    | Some v ->
      checkb "pop order strictly decreasing after churn" true (v < last);
      drain v
  in
  drain max_int

let test_fifo_steal () =
  let q = Lfdeque.create () in
  for i = 1 to 100 do
    Lfdeque.push q i
  done;
  for i = 1 to 100 do
    checki "FIFO steal" i (Option.get (Lfdeque.steal q))
  done;
  checkb "empty after" true (Lfdeque.steal q = None)

let test_resize_sequential () =
  let q = Lfdeque.create ~min_capacity:2 () in
  checki "initial capacity" 2 (Lfdeque.capacity q);
  for i = 0 to 999 do
    Lfdeque.push q i
  done;
  checkb "grew" true (Lfdeque.capacity q >= 1024);
  checki "length" 1000 (Lfdeque.length q);
  checki "steal oldest" 0 (Option.get (Lfdeque.steal q));
  checki "pop newest" 999 (Option.get (Lfdeque.pop q));
  checki "length after" 998 (Lfdeque.length q)

(* ------------------------------------------------------------------ *)
(* Ownership lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

let test_owner_sticky () =
  let q = Lfdeque.create ~owner:3 () in
  checkb "created owned" true (Lfdeque.owner q = Some 3);
  Lfdeque.push q 1;
  checkb "not dead while owned" false (Lfdeque.is_dead q);
  Lfdeque.abandon q;
  checkb "abandoned" true (Lfdeque.owner q = None);
  checkb "nonempty abandoned deque is not dead" false (Lfdeque.is_dead q);
  checki "thief drains the abandoned deque" 1 (Option.get (Lfdeque.steal q));
  checkb "now dead" true (Lfdeque.is_dead q);
  (* the certificate is one-way: still dead on every later read *)
  checkb "dead is stable" true (Lfdeque.is_dead q)

let test_unowned_empty_is_dead () =
  let q = Lfdeque.create () in
  checkb "never-owned empty deque is dead" true (Lfdeque.is_dead q);
  let q' = Lfdeque.create ~owner:0 () in
  checkb "owned empty deque is not dead" false (Lfdeque.is_dead q')

let test_ops_accounting () =
  let ops = ref 0 in
  let q = Lfdeque.create ~owner:0 () in
  Lfdeque.push ~ops q 1;
  checkb "push counts sync ops" true (!ops >= 2);
  let after_push = !ops in
  ignore (Lfdeque.steal ~ops q);
  checkb "steal counts its CAS" true (!ops > after_push);
  let after_steal = !ops in
  ignore (Lfdeque.pop ~ops q);
  (* empty pop still reserves and restores: two stores *)
  checkb "empty pop counts the reserve/restore" true (!ops >= after_steal + 2);
  Lfdeque.abandon ~ops q;
  checkb "abandon counts its store" true (!ops >= after_steal + 3)

(* ------------------------------------------------------------------ *)
(* Concurrent multiset property (one owner, roaming thieves)           *)
(* ------------------------------------------------------------------ *)

let concurrent_run ?(min_capacity = 2) ?start_index ~n_stealers ops =
  let q =
    match start_index with
    | None -> Lfdeque.create ~min_capacity ~owner:0 ()
    | Some index -> Lfdeque.create_at ~min_capacity ~owner:0 ~index ()
  in
  let stop = Atomic.make false in
  let stealers =
    List.init n_stealers (fun _ ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Lfdeque.steal q with
              | Some v -> acc := v :: !acc
              | None -> Domain.cpu_relax ()
            done;
            let rec sweep () =
              match Lfdeque.steal q with
              | Some v ->
                acc := v :: !acc;
                sweep ()
              | None -> ()
            in
            sweep ();
            !acc))
  in
  let next = ref 0 in
  let pushed = ref [] in
  let popped = ref [] in
  List.iter
    (fun op ->
       if op then begin
         Lfdeque.push q !next;
         pushed := !next :: !pushed;
         incr next
       end
       else
         match Lfdeque.pop q with
         | Some v -> popped := v :: !popped
         | None -> ())
    ops;
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join stealers in
  let rec drain acc =
    match Lfdeque.pop q with Some v -> drain (v :: acc) | None -> acc
  in
  let rest = drain [] in
  (!pushed, !popped @ stolen @ rest)

let multiset_eq a b = List.sort compare a = List.sort compare b

let qcheck_no_dup_no_loss =
  QCheck.Test.make ~count:40
    ~name:"lfdeque: multiset(popped+stolen+drained) = multiset(pushed), no dups/losses"
    QCheck.(pair (list_of_size Gen.(int_range 0 400) bool) (int_range 1 3))
    (fun (ops, n_stealers) ->
       let pushed, taken = concurrent_run ~n_stealers ops in
       multiset_eq pushed taken)

(* The quarantine-path property: a deque whose owner died mid-stream and
   was abandoned on its behalf (the pool's reaper-side [abandon], the one
   audited relaxation of the owner-only contract) must yield to its
   drainers exactly the multiset it held at the moment of death — no
   element lost inside the dead deque, none delivered twice.  The owner
   phase is sequential (the owner is fenced before anyone else touches
   the deque), the drain is concurrent. *)
let qcheck_dead_owner_drain =
  QCheck.Test.make ~count:40
    ~name:"lfdeque: draining a dead owner's abandoned deque = exact pre-crash multiset"
    QCheck.(pair (list_of_size Gen.(int_range 0 200) bool) (int_range 1 3))
    (fun (ops, n_stealers) ->
       let q = Lfdeque.create ~min_capacity:2 ~owner:1 () in
       let next = ref 0 in
       let live = Hashtbl.create 16 in
       List.iter
         (fun op ->
            if op then begin
              Lfdeque.push q !next;
              Hashtbl.replace live !next ();
              incr next
            end
            else
              match Lfdeque.pop q with
              | Some v -> Hashtbl.remove live v
              | None -> ())
         ops;
       let remaining = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
       (* the owner crashes here; a quarantining peer abandons for it *)
       Lfdeque.abandon q;
       let total = List.length remaining in
       let taken = Atomic.make 0 in
       let thieves =
         List.init n_stealers (fun _ ->
             Domain.spawn (fun () ->
                 let acc = ref [] in
                 let misses = ref 0 in
                 (* a lost element would strand [taken] below [total];
                    the miss bound turns that hang into a failed multiset *)
                 while Atomic.get taken < total && !misses < 1_000_000 do
                   match Lfdeque.steal q with
                   | Some v ->
                     Atomic.incr taken;
                     misses := 0;
                     acc := v :: !acc
                   | None ->
                     incr misses;
                     Domain.cpu_relax ()
                 done;
                 !acc))
       in
       let drained = List.concat_map Domain.join thieves in
       multiset_eq remaining drained && Lfdeque.is_dead q && Lfdeque.steal q = None)

(* Grows racing thieves, one input per test case: a mixed stream (~9%
   pops), a push-only stream that stealers must drain even when they win
   most races, and a minimum-size buffer that grows constantly. *)
let test_resize_under_steal (min_capacity, n_stealers, ops) () =
  let pushed, taken = concurrent_run ~min_capacity ~n_stealers ops in
  checkb "multiset equal" true (multiset_eq pushed taken);
  checki "taken count" (List.length pushed) (List.length taken)

let stress_mixed = (2, 3, List.init 20_000 (fun i -> i mod 11 <> 10))
let stress_push_only = (2, 2, List.init 5_000 (fun _ -> true))
let stress_tiny_grow = (1, 3, List.init 4_000 (fun i -> i mod 3 <> 2))

(* ------------------------------------------------------------------ *)
(* N owners x M thieves (the pool's usage pattern; <= 4 domains)       *)
(* ------------------------------------------------------------------ *)

(* Two owner domains each drive their own deque through a push/pop
   cycle; two thief domains roam over both deques, stealing wherever
   they find work.  Values are tagged by owner so the oracle can assert,
   per deque, exactly-once delivery — any double steal surfaces as a
   duplicate, any lost element as a shortfall.  Domain count stays at 4
   (2 owners + 2 thieves) to keep CI deflaked.

   [abandon] picks how an owner ends: DFDeques' owner walks away and the
   thieves drain the deque to death; a work-stealing owner keeps its
   deque for life and pops it empty itself, so the deque stays owned and
   is never dead. *)
let test_owners_vs_roaming_thieves ~abandon () =
  let n_owners = 2 and n_thieves = 2 in
  let per_owner = 4_000 in
  let deques = Array.init n_owners (fun w -> Lfdeque.create ~min_capacity:2 ~owner:w ()) in
  let stop = Atomic.make false in
  let thieves =
    List.init n_thieves (fun t ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            let k = ref t in
            while not (Atomic.get stop) do
              (match Lfdeque.steal deques.(!k mod n_owners) with
               | Some v -> acc := v :: !acc
               | None -> Domain.cpu_relax ());
              incr k
            done;
            (* final sweep over every deque so stopping strands nothing *)
            Array.iter
              (fun q ->
                 let rec sweep () =
                   match Lfdeque.steal q with
                   | Some v ->
                     acc := v :: !acc;
                     sweep ()
                   | None -> ()
                 in
                 sweep ())
              deques;
            !acc))
  in
  let owners =
    List.init n_owners (fun w ->
        Domain.spawn (fun () ->
            let q = deques.(w) in
            let got = ref [] in
            for i = 0 to per_owner - 1 do
              (* tag: owner id in the low bits keeps the streams disjoint *)
              Lfdeque.push q ((i * n_owners) + w);
              if i mod 7 = 6 then
                match Lfdeque.pop q with
                | Some v -> got := v :: !got
                | None -> ()
            done;
            if abandon then begin
              (* quota exhausted: the owner walks away; thieves drain *)
              Lfdeque.abandon q;
              !got
            end
            else
              (* out of work: the owner pops its own deque empty *)
              let rec drain acc =
                match Lfdeque.pop q with Some v -> drain (v :: acc) | None -> acc
              in
              drain !got))
  in
  let popped = List.concat_map Domain.join owners in
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join thieves in
  (* the thieves' sweeps can stop early on a lost CAS race against each
     other; with every domain joined this drain is single-threaded and
     definitive *)
  let rest =
    Array.fold_left
      (fun acc q ->
         let rec d acc =
           match Lfdeque.steal q with Some v -> d (v :: acc) | None -> acc
         in
         d acc)
      [] deques
  in
  let taken = popped @ stolen @ rest in
  let pushed =
    List.concat
      (List.init n_owners (fun w -> List.init per_owner (fun i -> (i * n_owners) + w)))
  in
  checkb "owners x thieves multiset equal (no duplicate steal, no loss)" true
    (multiset_eq pushed taken);
  Array.iteri
    (fun w q ->
       if abandon then
         checkb "every abandoned deque drained to death" true (Lfdeque.is_dead q)
       else begin
         checkb "a kept deque stays owned" true (Lfdeque.owner q = Some w);
         checki "a kept deque ends empty" 0 (Lfdeque.length q);
         checkb "a kept deque is never dead" false (Lfdeque.is_dead q)
       end)
    deques

(* ------------------------------------------------------------------ *)
(* Wraparound regressions (create_at biased start)                     *)
(* ------------------------------------------------------------------ *)

let test_wrap_sequential () =
  let q = Lfdeque.create_at ~min_capacity:2 ~owner:0 ~index:(max_int - 2) () in
  for i = 0 to 5 do
    Lfdeque.push q i
  done;
  checki "length across boundary" 6 (Lfdeque.length q);
  checki "steal oldest" 0 (Option.get (Lfdeque.steal q));
  checki "pop newest" 5 (Option.get (Lfdeque.pop q));
  for i = 4 downto 1 do
    checki "pop order" i (Option.get (Lfdeque.pop q))
  done;
  checkb "empty after" true (Lfdeque.pop q = None);
  (* single-element churn exactly on the boundary drives the d=0 race
     path and the empty-reset path with wrapped indices *)
  for i = 0 to 9 do
    Lfdeque.push q i;
    checki "immediate pop" i (Option.get (Lfdeque.pop q))
  done;
  checkb "still empty" true (Lfdeque.steal q = None);
  checkb "length never negative across boundary" true (Lfdeque.length q = 0)

let test_wrap_grow_steal () =
  let q = Lfdeque.create_at ~min_capacity:1 ~owner:0 ~index:(max_int - 1) () in
  checki "tiny initial capacity" 2 (Lfdeque.capacity q);
  for i = 0 to 7 do
    Lfdeque.push q i
  done;
  checkb "grew across boundary" true (Lfdeque.capacity q >= 8);
  for i = 0 to 7 do
    checki "FIFO across boundary" i (Option.get (Lfdeque.steal q))
  done;
  checkb "empty after" true (Lfdeque.steal q = None);
  (* the death certificate must also survive wrapped indices *)
  Lfdeque.abandon q;
  checkb "dead across boundary" true (Lfdeque.is_dead q)

let test_wrap_concurrent () =
  let ops = List.init 8_000 (fun i -> i mod 5 <> 4) in
  let pushed, taken =
    concurrent_run ~min_capacity:2 ~start_index:(max_int - 1_000) ~n_stealers:3 ops
  in
  checkb "wraparound multiset equal" true (multiset_eq pushed taken)

let () =
  Alcotest.run "lfdeque"
    [
      ( "sequential",
        [
          Alcotest.test_case "owner LIFO" `Quick test_lifo_owner;
          Alcotest.test_case "thief FIFO" `Quick test_fifo_steal;
          Alcotest.test_case "resize" `Quick test_resize_sequential;
          Alcotest.test_case "wraparound churn" `Quick test_interleaved_push_pop;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "abandon is sticky, death is stable" `Quick test_owner_sticky;
          Alcotest.test_case "dead = unowned and empty" `Quick test_unowned_empty_is_dead;
          Alcotest.test_case "sync-op cells count RMWs" `Quick test_ops_accounting;
        ] );
      ( "concurrent",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_no_dup_no_loss;
          QCheck_alcotest.to_alcotest ~long:false qcheck_dead_owner_drain;
          Alcotest.test_case "resize under steal stress" `Quick
            (test_resize_under_steal stress_mixed);
          Alcotest.test_case "push-only, stealers drain" `Quick
            (test_resize_under_steal stress_push_only);
          Alcotest.test_case "tiny buffer grows under steal" `Quick
            (test_resize_under_steal stress_tiny_grow);
          Alcotest.test_case "2 owners x 2 roaming thieves" `Quick
            (test_owners_vs_roaming_thieves ~abandon:true);
          Alcotest.test_case "2 kept deques x 2 roaming thieves" `Quick
            (test_owners_vs_roaming_thieves ~abandon:false);
        ] );
      ( "wraparound",
        [
          Alcotest.test_case "sequential laws across max_int" `Quick test_wrap_sequential;
          Alcotest.test_case "grow + FIFO steal across max_int" `Quick test_wrap_grow_steal;
          Alcotest.test_case "concurrent churn across max_int" `Quick test_wrap_concurrent;
        ] );
    ]
