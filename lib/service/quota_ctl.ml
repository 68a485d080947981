type config = {
  k_init : int;
  k_min : int;
  k_max : int;
  high_watermark : int;
  low_watermark : int;
  recover_steps : int;
}

let default_config =
  {
    k_init = 50_000;
    k_min = 2_000;
    k_max = 50_000;
    high_watermark = 100_000;
    low_watermark = 20_000;
    recover_steps = 3;
  }

let validate c =
  if c.k_min <= 0 then invalid_arg "Quota_ctl: k_min must be positive";
  if c.k_max < c.k_min then invalid_arg "Quota_ctl: k_max must be >= k_min";
  if c.k_init < c.k_min || c.k_init > c.k_max then
    invalid_arg "Quota_ctl: k_init must lie in [k_min, k_max]";
  if c.high_watermark <= 0 then invalid_arg "Quota_ctl: high_watermark must be positive";
  if c.low_watermark < 0 || c.low_watermark > c.high_watermark then
    invalid_arg "Quota_ctl: low_watermark must lie in [0, high_watermark]";
  if c.recover_steps < 1 then invalid_arg "Quota_ctl: recover_steps must be >= 1"

type action =
  | Steady
  | Shrink of { from_quota : int; to_quota : int }
  | Grow of { from_quota : int; to_quota : int }

type t = {
  cfg : config;
  mutable k : int;
  mutable ewma : int;
  mutable calm : int;  (** consecutive intervals at or below the low watermark *)
  mutable traj : (int * int) list;  (** (step, new K), newest first *)
}

let create cfg =
  validate cfg;
  { cfg; k = cfg.k_init; ewma = 0; calm = 0; traj = [] }

let observe t ~now ~pressure =
  if pressure < 0 then invalid_arg "Quota_ctl.observe: negative pressure";
  (* 4:1 integer EWMA: responsive within a few intervals, yet one spike
     alone does not whipsaw K *)
  t.ewma <- ((3 * t.ewma) + pressure) / 4;
  if t.ewma > t.cfg.high_watermark then begin
    t.calm <- 0;
    if t.k > t.cfg.k_min then begin
      let from_quota = t.k in
      t.k <- max t.cfg.k_min (t.k / 2);
      t.traj <- (now, t.k) :: t.traj;
      Shrink { from_quota; to_quota = t.k }
    end
    else Steady (* already at the floor *)
  end
  else if t.ewma <= t.cfg.low_watermark then begin
    t.calm <- t.calm + 1;
    if t.calm >= t.cfg.recover_steps && t.k < t.cfg.k_max then begin
      t.calm <- 0;
      let from_quota = t.k in
      t.k <- min t.cfg.k_max (t.k * 2);
      t.traj <- (now, t.k) :: t.traj;
      Grow { from_quota; to_quota = t.k }
    end
    else Steady
  end
  else begin
    (* between the watermarks: hold position, reset the calm streak *)
    t.calm <- 0;
    Steady
  end

let quota t = t.k

let trajectory t = List.rev t.traj
