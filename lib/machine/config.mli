(** Simulated machine description and cost model.

    Two preset modes:

    - {!analysis} — the exact cost model of Section 4.1: every action is one
      unit timestep, a steal attempt occupies one timestep, cache misses and
      scheduler bookkeeping are free.  The space/time bounds of Theorems
      4.4–4.8 are stated (and tested) in this mode.

    - {!costed} — the performance model used for the Section 5 style
      experiments: simulated L2 misses stall the processor, global-queue
      schedulers serialise their queue accesses through a lock, steals and
      thread creation carry overheads.  This is the model under which the
      FIFO/ADF/DFD speedup and locality orderings of Figures 1, 12 and 17
      are reproduced. *)

type cache = {
  line_words : int;  (** words per cache line. *)
  n_sets : int;  (** number of sets. *)
  assoc : int;  (** ways per set. *)
}
(** A [line_words * n_sets * assoc * 8]-byte set-associative LRU cache per
    processor (the paper's per-processor off-chip L2, Section 1).
    [line_words] and [n_sets] must be powers of two, so that the simulator
    splits an address into line, set and tag with shifts and a mask;
    [assoc] may be any value >= 1.  See {!validate_cache}. *)

type t = {
  p : int;  (** number of processors. *)
  mem_threshold : int option;
      (** the memory threshold K in bytes; [None] = infinity (pure work
          stealing behaviour, Section 3.3). *)
  stack_bytes : int;
      (** stack reservation per live thread (8kB in the paper, Section 5). *)
  cache : cache option;  (** [None] disables the cache simulation. *)
  miss_penalty : int;  (** extra timesteps a processor stalls per miss. *)
  steal_cost : int;  (** timesteps per steal attempt (>= 1). *)
  queue_cost : int;
      (** lock-hold time for each access to a {e global} scheduling
          structure (FIFO / ADF); 0 disables contention modelling. *)
  thread_cost : int;  (** extra timesteps charged at each fork. *)
  stack_pressure_threshold : int;
      (** live-thread count beyond which forks pay {!stack_pressure_cost}:
          each live thread reserves an 8kB stack, and the paper attributes
          the FIFO scheduler's collapse to "system calls related to memory
          allocation for the thread stacks" once thousands of threads are
          live (Section 5.2). *)
  stack_pressure_cost : int;  (** extra fork timesteps beyond the threshold. *)
  seed : int;  (** PRNG seed for steal-victim selection. *)
}

val analysis : p:int -> ?mem_threshold:int option -> ?seed:int -> unit -> t
(** Section 4.1 cost model.  [mem_threshold] defaults to [None]. *)

val costed :
  p:int ->
  ?mem_threshold:int option ->
  ?seed:int ->
  ?cache:cache ->
  ?miss_penalty:int ->
  ?queue_cost:int ->
  ?steal_cost:int ->
  ?thread_cost:int ->
  ?stack_pressure_threshold:int ->
  ?stack_pressure_cost:int ->
  unit ->
  t
(** Section 5 performance model.  Defaults: the {!default_cache}, miss
    penalty 8, queue cost 2, steal cost 4, thread cost 10, stack pressure
    40 extra fork timesteps beyond 128 live threads.  Raises
    [Invalid_argument] if [p < 1] or the cache geometry is invalid
    ({!validate_cache}). *)

val default_cache : cache
(** 64B lines (8 words), 256 sets, 4-way: 64kB per processor — scaled down
    from the paper's 512kB L2 in proportion to our scaled-down inputs. *)

val cache_bytes : cache -> int

val validate_cache : cache -> unit
(** Raises [Invalid_argument] unless [line_words] and [n_sets] are powers
    of two and [assoc >= 1]. *)

val mem_threshold_exn : t -> int
(** The threshold, raising if infinite (callers that need a finite K). *)

val is_infinite_threshold : t -> bool

val pp : Format.formatter -> t -> unit
