type cache = { line_words : int; n_sets : int; assoc : int }

type t = {
  p : int;
  mem_threshold : int option;
  stack_bytes : int;
  cache : cache option;
  miss_penalty : int;
  steal_cost : int;
  queue_cost : int;
  thread_cost : int;
  stack_pressure_threshold : int;
  stack_pressure_cost : int;
  seed : int;
}

let default_cache = { line_words = 8; n_sets = 256; assoc = 4 }

let cache_bytes c = c.line_words * 8 * c.n_sets * c.assoc

let validate_cache c =
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  if not (pow2 c.line_words) then invalid_arg "Config: cache line_words must be a power of two";
  if not (pow2 c.n_sets) then invalid_arg "Config: cache n_sets must be a power of two";
  if c.assoc < 1 then invalid_arg "Config: cache assoc must be >= 1"

let analysis ~p ?(mem_threshold = None) ?(seed = 42) () =
  if p < 1 then invalid_arg "Config.analysis: p must be >= 1";
  {
    p;
    mem_threshold;
    stack_bytes = 8 * 1024;
    cache = None;
    miss_penalty = 0;
    steal_cost = 1;
    queue_cost = 0;
    thread_cost = 0;
    stack_pressure_threshold = max_int;
    stack_pressure_cost = 0;
    seed;
  }

let costed ~p ?(mem_threshold = None) ?(seed = 42) ?(cache = default_cache)
    ?(miss_penalty = 8) ?(queue_cost = 2) ?(steal_cost = 4) ?(thread_cost = 10)
    ?(stack_pressure_threshold = 128) ?(stack_pressure_cost = 40) () =
  if p < 1 then invalid_arg "Config.costed: p must be >= 1";
  validate_cache cache;
  {
    p;
    mem_threshold;
    stack_bytes = 8 * 1024;
    cache = Some cache;
    miss_penalty;
    steal_cost = max 1 steal_cost;
    queue_cost;
    thread_cost;
    stack_pressure_threshold;
    stack_pressure_cost;
    seed;
  }

let mem_threshold_exn t =
  match t.mem_threshold with
  | Some k -> k
  | None -> invalid_arg "Config.mem_threshold_exn: threshold is infinite"

let is_infinite_threshold t = t.mem_threshold = None

let pp ppf t =
  Format.fprintf ppf "p=%d K=%s stack=%d steal=%d queue=%d miss=%d thread=%d seed=%d"
    t.p
    (match t.mem_threshold with None -> "inf" | Some k -> string_of_int k)
    t.stack_bytes t.steal_cost t.queue_cost t.miss_penalty t.thread_cost t.seed
