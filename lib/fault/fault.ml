module Prng = Dfd_structures.Prng

type rates = {
  stall_prob : float;
  stall_steps : int;
  steal_fail_prob : float;
  alloc_spike_prob : float;
  alloc_spike_bytes : int;
  lock_delay_prob : float;
  lock_delay_steps : int;
}

let zero_rates =
  {
    stall_prob = 0.0;
    stall_steps = 0;
    steal_fail_prob = 0.0;
    alloc_spike_prob = 0.0;
    alloc_spike_bytes = 0;
    lock_delay_prob = 0.0;
    lock_delay_steps = 0;
  }

let default_rates =
  {
    stall_prob = 0.02;
    stall_steps = 5;
    steal_fail_prob = 0.2;
    alloc_spike_prob = 0.05;
    alloc_spike_bytes = 4096;
    lock_delay_prob = 0.25;
    lock_delay_steps = 8;
  }

let kind_names = [| "stall"; "steal_fail"; "alloc_spike"; "lock_delay" |]

let i_stall = 0
let i_steal_fail = 1
let i_alloc_spike = 2
let i_lock_delay = 3

type t = { rng : Prng.t; rates : rates; counters : int array; on : bool }

let make ~on ~rates seed =
  { rng = Prng.create seed; rates; counters = Array.make (Array.length kind_names) 0; on }

let none = make ~on:false ~rates:zero_rates 0

let create ?(rates = default_rates) ~seed () = make ~on:true ~rates seed

let enabled t = t.on

(* One Bernoulli draw, counted when it hits. *)
let decide t i prob =
  if (not t.on) || prob <= 0.0 then false
  else begin
    let hit = Prng.float t.rng 1.0 < prob in
    if hit then t.counters.(i) <- t.counters.(i) + 1;
    hit
  end

let stall_steps t =
  if decide t i_stall t.rates.stall_prob then max 1 t.rates.stall_steps else 0

let steal_fails t = decide t i_steal_fail t.rates.steal_fail_prob

let alloc_spike t =
  if decide t i_alloc_spike t.rates.alloc_spike_prob then max 1 t.rates.alloc_spike_bytes else 0

let lock_delay t =
  if decide t i_lock_delay t.rates.lock_delay_prob then max 1 t.rates.lock_delay_steps else 0

let injected_total t = Array.fold_left ( + ) 0 t.counters

let counts t = Array.to_list (Array.mapi (fun i name -> (name, t.counters.(i))) kind_names)
