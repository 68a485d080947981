(* The scenario catalogue for the schedule explorer.

   Each scenario is a small, seeded concurrent workload over the
   instrumented structures, paired with a post-hoc oracle the driver
   evaluates single-threaded.  The deque scenarios all share one
   oracle shape: every pushed value is delivered exactly once (to the
   owner, a thief, or the final drain) — the multiset identity that any
   double delivery or lost element breaks.  The pool scenarios run a real
   fork-join computation on a detached pool whose worker roles are played
   by controlled threads, and check the result, the task accounting and
   the absence of leaked tasks. *)

module Prng = Dfd_structures.Prng
module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
module Schedpoint = Dfd_structures.Schedpoint
module Pool = Dfd_runtime.Pool

(* Every pushed value delivered exactly once.  [got] is the concatenation
   of everything popped, stolen and drained. *)
let multiset_result ~pushed ~got =
  let sort = List.sort compare in
  if sort got = sort pushed then Ok ()
  else begin
    let seen = Hashtbl.create 16 in
    let dup =
      List.find_opt
        (fun x ->
          let d = Hashtbl.mem seen x in
          Hashtbl.replace seen x ();
          d)
        got
    in
    let lost = List.filter (fun x -> not (List.mem x got)) pushed in
    let show l = String.concat "," (List.map string_of_int l) in
    Error
      (Printf.sprintf "delivery multiset mismatch: pushed=[%s] got=[%s]%s%s"
         (show (sort pushed)) (show (sort got))
         (match dup with
          | Some d -> Printf.sprintf " duplicate=%d" d
          | None -> "")
         (if lost <> [] then Printf.sprintf " lost=[%s]" (show lost) else ""))
  end

let drain pop =
  let rec go acc = match pop () with Some v -> go (v :: acc) | None -> acc in
  go []

(* ------------------------------------------------------------------ *)
(* Lfdeque scenarios (the one deque of both pool disciplines)          *)
(* ------------------------------------------------------------------ *)

let take got = function Some v -> got := v :: !got | None -> ()

(* Thread 0 is the owner: [owner rng q] draws the values it will push
   and returns them with the owner's body, which yields what it popped.
   Threads 1..[thieves] each attempt [steals] steals.  The oracle drains
   the rest and checks exactly-once delivery. *)
let owner_vs_thieves ~name ~descr ~thieves ~steals ~approx_steps ~create ~owner =
  {
    Explore.name;
    descr;
    n_threads = 1 + thieves;
    approx_steps;
    prepare =
      (fun rng ->
        let q = create () in
        let pushed, run_owner = owner rng q in
        let got = Array.init (1 + thieves) (fun _ -> ref []) in
        let body i =
          if i = 0 then got.(0) := run_owner ()
          else
            for _ = 1 to steals do
              take got.(i) (Lfdeque.steal q)
            done
        in
        let oracle () =
          let rest = drain (fun () -> Lfdeque.pop q) in
          multiset_result ~pushed ~got:(List.concat_map ( ! ) (Array.to_list got) @ rest)
        in
        (body, oracle));
  }

(* Owner/thief linearizability: a seeded owner push/pop mix against two
   concurrent thieves. *)
let lfdeque_ops =
  owner_vs_thieves ~name:"lfdeque_ops"
    ~descr:"lfdeque: seeded owner push/pop mix vs two concurrent thieves" ~thieves:2
    ~steals:3 ~approx_steps:60
    ~create:(fun () -> Lfdeque.create ~min_capacity:2 ~owner:0 ())
    ~owner:(fun rng q ->
      let n_ops = 6 + Prng.int rng 4 in
      let plan = List.init n_ops (fun _ -> Prng.int rng 3 < 2) in
      let pushed = List.init (List.length (List.filter Fun.id plan)) Fun.id in
      let run () =
        let next = ref 0 and got = ref [] in
        List.iter
          (fun is_push ->
            if is_push then begin
              Lfdeque.push q !next;
              incr next
            end
            else take got (Lfdeque.pop q))
          plan;
        !got
      in
      (pushed, run))

(* Tiny initial buffer: the owner's pushes force grows while a thief is
   mid-steal, exercising the buffer republication race. *)
let lfdeque_grow =
  owner_vs_thieves ~name:"lfdeque_grow"
    ~descr:"lfdeque: forced buffer grows under a concurrent thief" ~thieves:1 ~steals:4
    ~approx_steps:50
    ~create:(fun () -> Lfdeque.create ~min_capacity:2 ~owner:0 ())
    ~owner:(fun rng q ->
      let pushed = List.init (5 + Prng.int rng 3) Fun.id in
      let run () =
        let got = ref [] in
        List.iter (Lfdeque.push q) pushed;
        for _ = 1 to 2 do
          take got (Lfdeque.pop q)
        done;
        !got
      in
      (pushed, run))

(* Start the logical indices just below [max_int]: the owner/thief churn
   crosses the signed-overflow boundary, validating the wraparound
   subtraction discipline under concurrency. *)
let lfdeque_wrap =
  owner_vs_thieves ~name:"lfdeque_wrap"
    ~descr:"lfdeque: index churn across the max_int overflow boundary" ~thieves:1 ~steals:3
    ~approx_steps:50
    ~create:(fun () -> Lfdeque.create_at ~min_capacity:2 ~owner:0 ~index:(max_int - 3) ())
    ~owner:(fun rng q ->
      let pushed = List.init (5 + Prng.int rng 2) Fun.id in
      let run () =
        let got = ref [] in
        List.iter
          (fun v ->
            Lfdeque.push q v;
            if v mod 3 = 2 then take got (Lfdeque.pop q))
          pushed;
        !got
      in
      (pushed, run))

(* The abandonment/reap discipline against a concurrent thief: the deque
   lives in a Multiq (as in the pool's R), the owner pushes then
   abandons mid-stream and tries to reap, a thief steals and tries to
   reap, a second thief only steals.  Oracle: exactly-once delivery, the
   entry was removed by at most one winner, and removal implies the
   death certificate held (unowned + empty) — a reap must never strand
   a task inside an unlinked deque. *)
let lfdeque_abandon =
  {
    Explore.name = "lfdeque_abandon";
    descr = "lfdeque: owner abandonment and reap racing concurrent thieves";
    n_threads = 3;
    approx_steps = 70;
    prepare =
      (fun rng ->
        let r = Multiq.create ~shards:2 () in
        let q = Lfdeque.create ~min_capacity:2 ~owner:0 () in
        let e = Multiq.insert_front r q in
        let n_push = 2 + Prng.int rng 3 in
        let pushed = List.init n_push Fun.id in
        let owner_got = ref [] in
        let thief_got = [| ref []; ref [] |] in
        let removed_by = [| ref false; ref false; ref false |] in
        let try_reap i =
          if Lfdeque.is_dead q && Multiq.remove r e then removed_by.(i) := true
        in
        let body i =
          if i = 0 then begin
            List.iter (Lfdeque.push q) pushed;
            (match Lfdeque.pop q with
             | Some v -> owner_got := v :: !owner_got
             | None -> ());
            (* quota exhausted: sticky give-up, then the owner's own
               reap attempt — exactly the pool's [dfd_abandon] *)
            Lfdeque.abandon q;
            try_reap 0
          end
          else begin
            for _ = 1 to 3 do
              match Lfdeque.steal q with
              | Some v -> thief_got.(i - 1) := v :: !(thief_got.(i - 1))
              | None -> ()
            done;
            if i = 1 then try_reap 1
          end
        in
        let oracle () =
          let was_empty = Lfdeque.is_empty q in
          let was_live = Multiq.is_live e in
          let winners =
            Array.fold_left (fun n r -> if !r then n + 1 else n) 0 removed_by
          in
          let rest = drain (fun () -> Lfdeque.steal q) in
          match
            multiset_result ~pushed
              ~got:(!owner_got @ !(thief_got.(0)) @ !(thief_got.(1)) @ rest)
          with
          | Error _ as err -> err
          | Ok () ->
            if winners > 1 then Error "deque reaped by two winners"
            else if (not was_live) && winners = 0 then
              Error "entry dead with no reap winner"
            else if (not was_live) && not was_empty then
              Error "deque reaped while still holding tasks"
            else if was_live && Lfdeque.owner q <> None then
              Error "owner certificate not sticky: still owned after abandon"
            else Ok ()
        in
        (body, oracle));
  }

(* The reap-decision window itself: a pre-abandoned nonempty deque, one
   reaper looping the [is_dead]-then-remove sequence against a thief
   draining it.  The yield point inside [is_dead] (between the owner
   read and the emptiness read) is exactly where a wrong read order
   would let the reaper unlink a deque that still holds a task. *)
let lfdeque_reap =
  {
    Explore.name = "lfdeque_reap";
    descr = "lfdeque: death-certificate reap racing a draining thief";
    n_threads = 2;
    approx_steps = 50;
    prepare =
      (fun rng ->
        let r = Multiq.create ~shards:2 () in
        let q = Lfdeque.create ~min_capacity:2 ~owner:0 () in
        let e = Multiq.insert_front r q in
        let n_push = 1 + Prng.int rng 3 in
        let pushed = List.init n_push Fun.id in
        List.iter (Lfdeque.push q) pushed;
        Lfdeque.abandon q;
        let thief_got = ref [] in
        let reaped = ref false in
        let body i =
          if i = 0 then
            for _ = 1 to 3 do
              if (not !reaped) && Lfdeque.is_dead q && Multiq.remove r e then
                reaped := true
            done
          else
            for _ = 1 to n_push do
              match Lfdeque.steal q with
              | Some v -> thief_got := v :: !thief_got
              | None -> ()
            done
        in
        let oracle () =
          let was_empty = Lfdeque.is_empty q in
          let rest = drain (fun () -> Lfdeque.steal q) in
          match multiset_result ~pushed ~got:(!thief_got @ rest) with
          | Error _ as err -> err
          | Ok () ->
            if !reaped && not was_empty then
              Error "deque reaped while still holding tasks"
            else if !reaped && Multiq.is_live e then
              Error "reap won but entry still live"
            else if (not !reaped) && not (Multiq.is_live e) then
              Error "entry dead but no reap was recorded"
            else Ok ()
        in
        (body, oracle));
  }

(* The planted bug: two thieves over Buggy_lfdeque's check-then-store
   [steal].  The explorer must find the double delivery. *)
let lfdeque_buggy =
  {
    Explore.name = "lfdeque_buggy";
    descr =
      "deliberately broken lfdeque steal (check-then-store): explorer must find it";
    n_threads = 2;
    approx_steps = 25;
    prepare =
      (fun _rng ->
        let q = Buggy_lfdeque.create ~capacity:8 ~owner:0 () in
        let pushed = [ 0; 1; 2 ] in
        List.iter (Buggy_lfdeque.push q) pushed;
        let thief_got = [| ref []; ref [] |] in
        let body i =
          for _ = 1 to 2 do
            match Buggy_lfdeque.steal q with
            | Some v -> thief_got.(i) := v :: !(thief_got.(i))
            | None -> ()
          done
        in
        let oracle () =
          let rest = drain (fun () -> Buggy_lfdeque.pop q) in
          multiset_result ~pushed ~got:(!(thief_got.(0)) @ !(thief_got.(1)) @ rest)
        in
        (body, oracle));
  }

(* ------------------------------------------------------------------ *)
(* Multiq scenarios (the relaxed R-list behind the DFDeques pool)      *)
(* ------------------------------------------------------------------ *)

(* Exactly-once membership under concurrent insert/remove: thread 0
   inserts (front and after random anchors), threads 1-2 race to remove
   a shared prefix.  Oracle: each removal had exactly one winner, and
   the live set visible through the shards is exactly
   {inserted} \ {removed}. *)
let multiq_ops =
  {
    Explore.name = "multiq_ops";
    descr = "multiq: CAS membership — concurrent inserts vs racing removers";
    n_threads = 3;
    approx_steps = 60;
    prepare =
      (fun rng ->
        let q = Multiq.create ~shards:2 () in
        let pre = Array.init 3 (fun v -> Multiq.insert_front q v) in
        let n_ins = 2 + Prng.int rng 2 in
        let anchors = Array.init n_ins (fun _ -> Prng.int rng 4) in
        let inserted = ref [] in
        let wins = [| ref []; ref [] |] in
        let body i =
          if i = 0 then
            for k = 0 to n_ins - 1 do
              let v = 100 + k in
              let e =
                if anchors.(k) = 3 then Multiq.insert_front q v
                else Multiq.insert_after q pre.(anchors.(k)) v
              in
              inserted := e :: !inserted
            done
          else
            Array.iter
              (fun e -> if Multiq.remove q e then wins.(i - 1) := e :: !(wins.(i - 1)))
              pre
        in
        let oracle () =
          let won_by_both =
            List.exists (fun e -> List.memq e !(wins.(1))) !(wins.(0))
          in
          let n_wins = List.length !(wins.(0)) + List.length !(wins.(1)) in
          let live = List.map Multiq.value (Multiq.members q) |> List.sort compare in
          let expect = List.init n_ins (fun k -> 100 + k) in
          if won_by_both then Error "a removal had two winners"
          else if n_wins <> 3 then
            Error (Printf.sprintf "3 removals, %d winners" n_wins)
          else if Array.exists Multiq.is_live pre then Error "removed entry still live"
          else if List.exists (fun e -> not (Multiq.is_live e)) !inserted then
            Error "inserted entry not live"
          else if live <> expect then
            Error
              (Printf.sprintf "membership torn: live=[%s] expected=[%s]"
                 (String.concat "," (List.map string_of_int live))
                 (String.concat "," (List.map string_of_int expect)))
          else if Multiq.size q <> n_ins then
            Error (Printf.sprintf "size=%d, expected %d" (Multiq.size q) n_ins)
          else Ok ()
        in
        (body, oracle));
  }

(* Two-choice sampling under membership churn: thread 0 churns (inserts
   then removes its own entries), thread 1 samples and verifies inline —
   sound under the explorer because no yield point lies between
   [sample]'s head reads and the verification scan — that each victim is
   live, and is the leftmost member of both sampled shards (the property
   that confines rank error to the unsampled shards). *)
let multiq_two_choice =
  {
    Explore.name = "multiq_two_choice";
    descr = "multiq: two-choice samples are leftmost-of-both-shards members";
    n_threads = 2;
    approx_steps = 60;
    prepare =
      (fun rng ->
        let q = Multiq.create ~shards:2 () in
        let anchor = Multiq.insert_front q (-1) in
        let n_ops = 3 + Prng.int rng 2 in
        let plan = Array.init n_ops (fun _ -> Prng.int rng 2) in
        let draws = Array.init 4 (fun _ -> (Prng.int rng 2, Prng.int rng 2)) in
        let bad = ref None in
        let body i =
          if i = 0 then begin
            let mine = ref [] in
            Array.iter
              (fun op ->
                if op = 0 || !mine = [] then
                  mine := Multiq.insert_after q anchor (List.length !mine) :: !mine
                else begin
                  ignore (Multiq.remove q (List.hd !mine));
                  mine := List.tl !mine
                end)
              plan
          end
          else
            Array.iter
              (fun (i, j) ->
                match Multiq.sample q i j with
                | None ->
                  if Multiq.head q i <> None || Multiq.head q j <> None then
                    bad := Some "sample None with a non-empty sampled shard"
                | Some v ->
                  if not (Multiq.is_live v) then bad := Some "sampled a dead entry"
                  else
                    List.iter
                      (fun k ->
                        List.iter
                          (fun m ->
                            if Multiq.compare_entries v m > 0 then
                              bad := Some "sample not leftmost of its two shards")
                          (Multiq.members_of_shard q k))
                      [ i; j ])
              draws
        in
        let oracle () = match !bad with None -> Ok () | Some r -> Error r in
        (body, oracle));
  }

(* The planted bug: Buggy_multiq's read-filter-store remove racing a
   CAS insert.  The explorer must find the torn (lost) insert. *)
let multiq_buggy =
  {
    Explore.name = "multiq_buggy";
    descr = "deliberately torn multiq remove (read-filter-store): explorer must find it";
    n_threads = 2;
    approx_steps = 30;
    prepare =
      (fun _rng ->
        let q = Buggy_multiq.create () in
        let pre = Array.init 2 (fun v -> Buggy_multiq.insert q v) in
        let inserted = ref [] in
        let body i =
          if i = 0 then
            for v = 100 to 102 do
              inserted := Buggy_multiq.insert q v :: !inserted
            done
          else Array.iter (fun e -> ignore (Buggy_multiq.remove q e)) pre
        in
        let oracle () =
          let live = Buggy_multiq.to_list q |> List.sort compare in
          let expect = [ 100; 101; 102 ] in
          if live <> expect then
            Error
              (Printf.sprintf "membership torn: live=[%s] expected=[%s]"
                 (String.concat "," (List.map string_of_int live))
                 (String.concat "," (List.map string_of_int expect)))
          else Ok ()
        in
        (body, oracle));
  }

(* ------------------------------------------------------------------ *)
(* Pool scenarios                                                      *)
(* ------------------------------------------------------------------ *)

(* Number of forks a fork-join fib n performs: F(n) = 1 + F(n-1) + F(n-2),
   F(<2) = 0.  Every fork pushes exactly one task, and every pushed task
   runs exactly once, so the pool's [tasks_run] counter must equal it. *)
let rec forks_of_fib n = if n < 2 then 0 else 1 + forks_of_fib (n - 1) + forks_of_fib (n - 2)

(* A detached pool whose worker 0 has forked and joined one empty branch
   while the iteration is prepared.  Under both policies (work stealing
   is DFDeques with K = ∞) that puts worker 0's deque in R, where thieves
   find its owner and ask it for work, before any controlled thread
   runs.  The warm-up fork counts one task. *)
let warm_pool ~workers policy =
  let pool = Pool.For_testing.create_detached ~workers policy in
  Pool.For_testing.as_worker pool 0 (fun () -> ignore (Pool.fork_join ignore ignore));
  pool

(* Tasks left in the pool once an iteration is over: queued where a
   worker could take them, or stranded in a private part. *)
let leaked pool ~workers =
  let rec priv w =
    if w = workers then 0 else Pool.For_testing.private_len pool w + priv (w + 1)
  in
  Pool.For_testing.queued pool + priv 0

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

(* A leaf's work: the explorer's preemption point inside a computation,
   since the fork and join fast path has none. *)
let work () = Schedpoint.point Schedpoint.task_work

(* A real fork-join computation on a detached pool: controlled thread 0
   plays worker 0 and computes fib through [fork_join]; threads 1-2 play
   workers 1-2 and help (steal and run tasks) until the computation
   announces completion.  Each fork is named by its path from the root
   (the root is 1, fork [k]'s children are [2k] and [2k+1]) and counts
   the runs of its forked branch, so the oracle sees a branch that ran
   twice even when the second run was inline and no deque noticed. *)
let pool_scenario ~name ~descr ~policy ~leaf ~fork_join =
  {
    Explore.name;
    descr;
    n_threads = 3;
    approx_steps = 80;
    prepare =
      (fun _rng ->
        let depth = 4 in
        let pool = warm_pool ~workers:3 policy in
        let result = ref (-1) in
        let finished = Atomic.make false in
        let runs = Array.init (2 lsl depth) (fun _ -> Atomic.make 0) in
        let body i =
          if i = 0 then
            Pool.For_testing.as_worker pool 0 (fun () ->
              let rec go n k =
                if n < 2 then begin
                  leaf ();
                  n
                end
                else begin
                  let a, b =
                    fork_join
                      (fun () ->
                        Atomic.incr runs.(k);
                        go (n - 1) (2 * k))
                      (fun () -> go (n - 2) ((2 * k) + 1))
                  in
                  a + b
                end
              in
              result := go depth 1;
              Atomic.set finished true)
          else
            Pool.For_testing.as_worker pool i (fun () ->
              while not (Atomic.get finished) do
                ignore (Pool.For_testing.help pool i)
              done)
        in
        let oracle () =
          let runs = Array.map Atomic.get runs in
          let once = Array.fold_left (fun n r -> if r = 1 then n + 1 else n) 0 runs in
          let expect = forks_of_fib depth in
          let tasks = expect + 1 in
          if !result <> fib depth then
            Error (Printf.sprintf "fib %d = %d, expected %d" depth !result (fib depth))
          else if Array.exists (fun r -> r > 1) runs then
            let k = Option.get (Array.find_index (fun r -> r > 1) runs) in
            Error
              (Printf.sprintf "exactly-once broken: fork %d's forked branch ran %d times" k
                 runs.(k))
          else if once <> expect then
            Error (Printf.sprintf "%d forked branches ran, expected %d" once expect)
          else if leaked pool ~workers:3 <> 0 then
            Error (Printf.sprintf "%d task(s) leaked in the pool" (leaked pool ~workers:3))
          else begin
            let c = Pool.counters pool in
            if c.tasks_run <> tasks then
              Error
                (Printf.sprintf "tasks_run=%d, expected %d (forks of fib %d, and the warm-up)"
                   c.tasks_run tasks depth)
            else Ok ()
          end
        in
        (body, oracle));
  }

(* Work stealing runs as DFDeques(∞): the same R-list paths as [pool_dfd],
   with no quota give-ups. *)
let pool_ws =
  pool_scenario ~name:"pool_ws"
    ~descr:"native pool, work stealing: fork-join fib with two helping workers"
    ~policy:Pool.Work_stealing ~leaf:work ~fork_join:Pool.fork_join

(* Small quota plus a per-leaf allocation hint forces quota give-ups, so
   task transfer flows through the sharded R-list paths too. *)
let pool_dfd =
  pool_scenario ~name:"pool_dfd"
    ~descr:"native pool, DFDeques(K): small quota forces R-list give-ups"
    ~policy:(Pool.Dfdeques { quota = 32 })
    ~leaf:(fun () ->
      work ();
      Pool.alloc_hint 64)
    ~fork_join:Pool.fork_join

(* The planted bug: Buggy_join runs the forked branch inline whenever its
   promise is still unwritten.  The explorer must find a branch run both
   by its thief and by its forker. *)
let pool_join_buggy =
  pool_scenario ~name:"pool_join_buggy"
    ~descr:"deliberately wrong join (Pending means unstolen): explorer must find it"
    ~policy:Pool.Work_stealing ~leaf:work ~fork_join:Buggy_join.fork_join

(* The idle wake-up handshake.  Thread 0 plays worker 0 and publishes
   one or two tasks as an answer to a request does (push onto its public
   deque, then read [n_parked]); thread 1 takes one parking step.  No
   task is ever taken, so whatever was pushed is still queued when the
   oracle runs.  A lost wake-up is the parker
   deciding to sleep while a task is queued and no signal was sent.
   Under either policy the push first inserts worker 0's deque into R,
   which the parker's scan walks; the policy is still drawn per
   iteration, so both K = 32 and K = ∞ pools are covered. *)
let park_scenario ~name ~descr ~step =
  {
    Explore.name;
    descr;
    n_threads = 2;
    approx_steps = 30;
    prepare =
      (fun rng ->
        let policy =
          if Prng.int rng 2 = 0 then Pool.Work_stealing else Pool.Dfdeques { quota = 32 }
        in
        let n_push = 1 + Prng.int rng 2 in
        let pool = Pool.For_testing.create_detached ~workers:2 policy in
        let verdict = ref `Found_work in
        let body i =
          if i = 0 then
            for _ = 1 to n_push do
              Pool.For_testing.push pool 0 ignore
            done
          else verdict := step pool 1
        in
        let oracle () =
          let queued = Pool.For_testing.queued pool in
          match !verdict with
          | `Would_sleep when queued > 0 && Pool.For_testing.wakeups pool = 0 ->
            Error
              (Printf.sprintf
                 "lost wake-up: the parker would sleep with %d task(s) queued and no signal \
                  sent"
                 queued)
          | `Would_sleep | `Found_work -> Ok ()
        in
        (body, oracle));
  }

let pool_park =
  park_scenario ~name:"pool_park"
    ~descr:"native pool: announce-then-scan parking racing a push, no lost wake-up"
    ~step:Pool.For_testing.park_step

(* The planted bug: Buggy_park scans before it announces.  The explorer
   must find the lost wake-up. *)
let pool_park_buggy =
  park_scenario ~name:"pool_park_buggy"
    ~descr:"deliberately misordered parking (scan, then announce): explorer must find it"
    ~step:Buggy_park.park_step

(* The recall handshake.  Pool A's slot 1 is attached to a worker
   domain, played by thread 1, which takes one parking step there.
   Thread 0 plays a run of another pool B that has taken that domain
   for one of its own slots: it recalls it from A (raise slot 1's
   recall flag, then broadcast on A's idle condition).  The parker reads
   the wake-up count right after its scan, with no yield point in
   between.  A real parker holds [idle_lock] from its announce until its
   wait, so a broadcast after its scan reaches it waiting.  A parker
   that would sleep with the flag raised and no broadcast after its
   scan is a domain asleep in A while B counts on it.  The policy is
   drawn per iteration, as in [park_scenario]. *)
let recall_scenario ~name ~descr ~recall =
  {
    Explore.name;
    descr;
    n_threads = 2;
    approx_steps = 20;
    prepare =
      (fun rng ->
        let policy =
          if Prng.int rng 2 = 0 then Pool.Work_stealing else Pool.Dfdeques { quota = 32 }
        in
        let a = Pool.For_testing.create_detached ~workers:2 policy in
        let b = Pool.For_testing.create_detached ~workers:2 policy in
        let verdict = ref `Found_work and seen = ref 0 in
        let body i =
          if i = 0 then Pool.For_testing.as_worker b 0 (fun () -> recall a 1)
          else begin
            verdict := Pool.For_testing.park_step a 1;
            seen := Pool.For_testing.wakeups a
          end
        in
        let oracle () =
          match !verdict with
          | `Would_sleep
            when Pool.For_testing.recalled a 1 && Pool.For_testing.wakeups a = !seen ->
            Error "recalled domain asleep: it would sleep with its recall flag raised and no \
                   broadcast after its scan"
          | `Would_sleep | `Found_work -> Ok ()
        in
        (body, oracle));
  }

let pool_recall =
  recall_scenario ~name:"pool_recall"
    ~descr:"native pool: flag-then-broadcast recall racing a parking step, no domain sleeps recalled"
    ~recall:Pool.For_testing.recall

(* The planted bug: Buggy_recall broadcasts before it raises the flag.
   The explorer must find the domain asleep while recalled. *)
let pool_recall_buggy =
  recall_scenario ~name:"pool_recall_buggy"
    ~descr:"deliberately misordered recall (broadcast, then flag): explorer must find it"
    ~recall:Buggy_recall.recall

(* The request protocol.  Worker 0 forks one branch, which goes to its
   private part; the fork is made while the iteration is prepared, so
   under DFDeques worker 0's deque is in R before any thread runs.
   Thread 0 then plays worker 0 and runs a loop of [rounds] units of
   work with a fork-or-join boundary after each.  Thread 1 plays worker 1
   and helps until the computation is over; finding worker 0's public
   deque empty, it raises worker 0's request flag.  An owner that has
   seen a request keeps passing boundaries until its private part is
   empty: with a correct answer that is the next boundary, which
   publishes the branch; with a dropped request the thief asks again
   forever and the iteration runs out of steps.  Then worker 0 joins:
   it takes the branch back if nobody stole it, else waits for the
   thief's outcome.  Under either policy the thief finds the owner
   through its R deque; the policy is still drawn per iteration. *)
let request_scenario ~name ~descr ~boundary =
  {
    Explore.name;
    descr;
    n_threads = 2;
    approx_steps = 40;
    prepare =
      (fun rng ->
        let policy =
          if Prng.int rng 2 = 0 then Pool.Work_stealing else Pool.Dfdeques { quota = 32 }
        in
        let rounds = 4 in
        let pool = Pool.For_testing.create_detached ~workers:2 policy in
        let runs = Atomic.make 0 in
        let finished = Atomic.make false in
        let branch () = Atomic.incr runs in
        let k = Pool.For_testing.as_worker pool 0 (fun () -> Pool.For_testing.fork branch) in
        let body i =
          if i = 0 then
            Pool.For_testing.as_worker pool 0 (fun () ->
              let n = ref 0 and asked = ref false in
              while
                Atomic.get runs = 0
                && (!n < rounds || (!asked && Pool.For_testing.private_len pool 0 > 0))
              do
                work ();
                if Pool.For_testing.requested pool 0 then asked := true;
                boundary pool 0;
                incr n
              done;
              if Pool.For_testing.pop_fork k then branch ()
              else
                while Pool.For_testing.peek k = None do
                  work ()
                done;
              Atomic.set finished true)
          else
            Pool.For_testing.as_worker pool 1 (fun () ->
              while not (Atomic.get finished) do
                ignore (Pool.For_testing.help pool 1)
              done)
        in
        let oracle () =
          if Atomic.get runs <> 1 then
            Error (Printf.sprintf "the branch ran %d times" (Atomic.get runs))
          else if leaked pool ~workers:2 <> 0 then
            Error (Printf.sprintf "%d task(s) leaked in the pool" (leaked pool ~workers:2))
          else Ok ()
        in
        (body, oracle));
  }

let pool_request =
  request_scenario ~name:"pool_request"
    ~descr:"native pool: a thief's request answered at the owner's next boundary"
    ~boundary:Pool.For_testing.boundary

(* The planted bug: Buggy_request clears the request and publishes
   nothing.  The explorer must report the livelock as a step-budget
   failure. *)
let pool_request_buggy =
  request_scenario ~name:"pool_request_buggy"
    ~descr:"deliberately dropped request (clear, no publish): explorer must find the hang"
    ~boundary:Buggy_request.boundary

(* ------------------------------------------------------------------ *)

let all =
  [
    lfdeque_ops;
    lfdeque_grow;
    lfdeque_wrap;
    lfdeque_abandon;
    lfdeque_reap;
    multiq_ops;
    multiq_two_choice;
    pool_ws;
    pool_dfd;
    pool_park;
    pool_request;
    pool_recall;
  ]

let buggy = lfdeque_buggy

let catalogue =
  multiq_buggy :: lfdeque_buggy :: pool_park_buggy :: pool_join_buggy :: pool_request_buggy
  :: pool_recall_buggy :: all

let find name = List.find_opt (fun s -> s.Explore.name = name) catalogue
