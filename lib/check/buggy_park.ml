(* Scan, then announce: the order [Pool.park] must not use.  See the
   .mli. *)

module Pool = Dfd_runtime.Pool
module Schedpoint = Dfd_structures.Schedpoint

let park_step pool _w =
  if Pool.For_testing.work_queued pool then `Found_work
  else begin
    Schedpoint.point Schedpoint.pool_park;
    Pool.For_testing.announce pool;
    `Would_sleep
  end
