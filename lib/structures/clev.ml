(* Kept only because the frozen benchmark (perfbench/structures_probe.ml)
   names [Dfd_structures.Clev]; the work-stealing deque is [Lfdeque]. *)
include Lfdeque
