(* Decide the join from the promise instead of the pop: the mistake
   [Pool.fork_join] must not make.  See the .mli. *)

module Pool = Dfd_runtime.Pool

let fork_join fa fb =
  let k = Pool.For_testing.fork fa in
  let b = fb () in
  ignore (Pool.For_testing.pop_fork k);
  match Pool.For_testing.peek k with Some a -> (a, b) | None -> (fa (), b)
