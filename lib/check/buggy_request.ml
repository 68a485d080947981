(* Clear a request without publishing: the answer [Pool]'s boundary
   check must not give.  See the .mli. *)

module Pool = Dfd_runtime.Pool
module Schedpoint = Dfd_structures.Schedpoint

let boundary pool w =
  if Pool.For_testing.requested pool w then begin
    Schedpoint.point Schedpoint.pool_respond;
    Pool.For_testing.drop_request pool w
  end
