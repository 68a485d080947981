(* Timed loops over the public operations of the concurrent structures
   the native pool is built from: the Chase-Lev deque (WS), the CAS-only
   DFDeques deque and the relaxed MultiQueue R-list. *)

module Clev = Dfd_structures.Clev
module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
open Measure

let reps = 5

(* Median over [reps] timings of [f], in ns per each of its [n] units. *)
let ns_per ~n f = median (List.init reps (fun _ -> snd (timed f) *. 1e9 /. float_of_int n))

(* Owner-only traffic: 64 pushes then 64 pops, repeated; ns per pair. *)
let batch = 64

let batches = 10_000

let push_pop ~push ~pop =
  ns_per ~n:(batches * batch) (fun () ->
      for _ = 1 to batches do
        for i = 1 to batch do
          push i
        done;
        for _ = 1 to batch do
          ignore (pop ())
        done
      done)

(* ns per successful steal by a thief on a second domain, while the
   owner keeps pushing and popping at the other end of the same deque. *)
let steal_ns ~push ~pop ~steal =
  let n = 100_000 in
  median
    (List.init 3 (fun _ ->
         for i = 1 to 2 * n do
           push i
         done;
         let stop = Atomic.make false in
         let thief =
           Domain.spawn (fun () ->
               let got = ref 0 in
               let t0 = now () in
               while !got < n do
                 match steal () with Some _ -> incr got | None -> Domain.cpu_relax ()
               done;
               let dt = now () -. t0 in
               Atomic.set stop true;
               dt)
         in
         while not (Atomic.get stop) do
           push 0;
           ignore (pop ())
         done;
         let dt = Domain.join thief in
         while pop () <> None do
           ()
         done;
         dt *. 1e9 /. float_of_int n))

let run () =
  let clev = Clev.create () in
  set "structures.clev.push_pop_ns" (push_pop ~push:(Clev.push clev) ~pop:(fun () -> Clev.pop clev));
  set "structures.clev.steal_ns"
    (steal_ns ~push:(Clev.push clev) ~pop:(fun () -> Clev.pop clev) ~steal:(fun () ->
         Clev.steal clev));
  (* the pool passes a per-worker [ops] cell to every deque call *)
  let ops = ref 0 in
  let lf = Lfdeque.create ~owner:0 () in
  let push i = Lfdeque.push ~ops lf i and pop () = Lfdeque.pop ~ops lf in
  set "structures.lfdeque.push_pop_ns" (push_pop ~push ~pop);
  ops := 0;
  for i = 1 to batch do
    push i
  done;
  for _ = 1 to batch do
    ignore (pop ())
  done;
  set "structures.lfdeque.sync_ops_per_op" (fratio !ops (2 * batch));
  set "structures.lfdeque.steal_ns" (steal_ns ~push ~pop ~steal:(fun () -> Lfdeque.steal lf));
  (* the R-list of a p = 2 pool: 2p shards, a standing population *)
  let q = Multiq.create ~shards:4 () in
  for i = 1 to 64 do
    ignore (Multiq.insert_front q i)
  done;
  let n = 200_000 in
  set "structures.multiq.insert_remove_ns"
    (ns_per ~n (fun () ->
         for i = 1 to n do
           ignore (Multiq.remove q (Multiq.insert_front q i))
         done));
  let n = 1_000_000 in
  set "structures.multiq.sample_ns"
    (ns_per ~n (fun () ->
         for i = 1 to n do
           ignore (Multiq.sample q i ((i * 7) + 3))
         done))
