(* Live Theorem-4.4 gauges: plain fields, published as registry probes. *)

let default_c = 8

let thm44_bound ~c ~s1 ~k ~p ~depth = s1 + (c * min k s1 * p * depth)

type t = {
  c : int;
  s1 : int;
  depth : int;
  p : int;
  k : int;
  mutable live : int;
  mutable peak : int;
  mutable premature : int;
}

let budget t = thm44_bound ~c:t.c ~s1:t.s1 ~k:t.k ~p:t.p ~depth:t.depth

let headroom_ratio t =
  let b = budget t in
  if b = 0 then if t.peak = 0 then 1.0 else 0.0
  else float_of_int (b - t.peak) /. float_of_int b

let create ~registry ~policy ?(c = default_c) ?(s1 = 0) ?(depth = 0) ~p ~k () =
  let t = { c; s1; depth; p; k; live = 0; peak = 0; premature = 0 } in
  let labeled base = Printf.sprintf "%s{policy=%S}" base policy in
  let g base help f = Registry.probe registry ~kind:`Gauge ~help (labeled base) f in
  g "dfd_space_live_bytes" "Current live heap bytes under the scheduler." (fun () -> t.live);
  g "dfd_space_budget_bytes" "Theorem 4.4 space budget S1 + c*min(K,S1)*p*D for the current quota K."
    (fun () -> budget t);
  g "dfd_space_premature_nodes" "Heavy premature nodes observed (Lemma 4.2 charges O(p*D))."
    (fun () -> t.premature);
  Registry.probe_float registry ~help:"(budget - peak_live) / budget; negative means the bound is blown."
    (labeled "dfd_space_headroom_ratio") (fun () -> headroom_ratio t);
  g "dfd_space_peak_bytes" "High watermark of dfd_space_live_bytes." (fun () -> t.peak);
  t

let observe t ~live_bytes =
  t.live <- live_bytes;
  if live_bytes > t.peak then t.peak <- live_bytes

let live t = t.live

let peak t = t.peak

let set_premature t n = t.premature <- n

let premature t = t.premature
