(* Broadcast, then raise the flag: the order [Pool]'s recall must not
   use.  See the .mli. *)

module Pool = Dfd_runtime.Pool
module Schedpoint = Dfd_structures.Schedpoint

let recall pool w =
  Pool.For_testing.wake_all pool;
  Schedpoint.point Schedpoint.pool_recall;
  Pool.For_testing.raise_recall pool w
