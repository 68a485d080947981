module Prng = Dfd_structures.Prng

type policy = { max_attempts : int; base_delay : int; max_delay : int }

let default = { max_attempts = 4; base_delay = 1; max_delay = 16 }

let validate p =
  if p.max_attempts < 1 then invalid_arg "Retry: max_attempts must be >= 1";
  if p.base_delay < 1 then invalid_arg "Retry: base_delay must be >= 1";
  if p.max_delay < p.base_delay then invalid_arg "Retry: max_delay must be >= base_delay"

type t = { pol : policy; rng : Prng.t; mutable attempts : int }

(* One stream per (seed, job): mix the job id into the seed with an odd
   multiplier so neighbouring jobs do not share schedule prefixes. *)
let create pol ~seed ~job =
  validate pol;
  { pol; rng = Prng.create (seed lxor ((job + 1) * 0x9e3779b1)); attempts = 0 }

let policy t = t.pol

let attempts t = t.attempts

let next_delay t =
  t.attempts <- min (t.attempts + 1) t.pol.max_attempts;
  if t.attempts >= t.pol.max_attempts then None
  else begin
    (* full jitter over a capped exponential ramp: uniform in
       [1, min max_delay (base·2^(n-1))] for the n-th retry *)
    let shift = min (t.attempts - 1) 20 in
    let ceiling = min t.pol.max_delay (t.pol.base_delay lsl shift) in
    Some (1 + Prng.int t.rng ceiling)
  end

(* Terminal-error classification: exception classes for which a retry is
   guaranteed to fail the same way, so attempting one only burns the
   budget: the deterministic programming-bug classes.  The service adds
   its own [Supervisor_giveup] at its one call site. *)
let is_terminal = function
  | Invalid_argument _ | Assert_failure _ | Match_failure _ | Undefined_recursive_module _ -> true
  | _ -> false

let schedule pol ~seed ~job =
  let t = create pol ~seed ~job in
  let rec go acc =
    match next_delay t with None -> List.rev acc | Some d -> go (d :: acc)
  in
  go []
