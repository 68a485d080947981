module Prog = Dfd_dag.Prog
open Prog

(* Subgraph G: a spine of d forks; the j-th forked thread allocates A,
   works long enough to stay live until the join bounce returns to it, and
   frees.  Serially the threads run one at a time (child-first), so the
   1DF schedule holds only one A allocation live. *)
let subgraph_g ~d ~a_bytes =
  let rec spine j =
    if j > d then nothing
    else
      par
        (alloc a_bytes >> work (1 + (2 * (d - j))) >> free a_bytes)
        (work 1 >> spine (j + 1))
  in
  spine 1

(* Subgraph G0: a serial chain of comparable depth ending at node w. *)
let subgraph_g0 ~d = work ((2 * d) + 1)

let prog ~p ~d ~a_bytes () =
  if p < 2 then invalid_arg "Lower_bound.prog: p must be >= 2";
  let leaves = max 1 (p / 2) in
  let leaf i = if i = 0 then subgraph_g0 ~d else subgraph_g ~d ~a_bytes in
  finish (par_iter ~lo:0 ~hi:leaves leaf)

let bench ?(p = 8) ?(d = 64) ?(a_bytes = 1024) grain =
  Workload.make ~name:"LowerBound"
    ~description:
      (Printf.sprintf "Figure 10 adversarial dag: p=%d, d=%d, A=%dB" p d a_bytes)
    ~grain
    ~prog:(prog ~p ~d ~a_bytes)
