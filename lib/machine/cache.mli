(** Per-processor set-associative LRU cache simulator.

    Stands in for the UltraSPARC L2 caches whose hardware miss counters the
    paper reads (Section 5.2, Figure 1).  Benchmark actions carry the word
    addresses they reference; the scheduler decides which processor issues
    them; this module turns those per-processor access streams into
    hit/miss counts.  A cold cache per processor, no coherence traffic —
    sufficient for the locality comparison the paper makes (threads close
    in the dag touch overlapping lines, so a scheduler that keeps them on
    one processor sees fewer misses). *)

type t

val create : Config.cache -> p:int -> t
(** One private cache per processor.  Raises [Invalid_argument] on a
    geometry {!Config.validate_cache} rejects. *)

val access : t -> proc:int -> addr:int -> bool
(** Issue one word reference on processor [proc]; [true] if it missed.
    Raises [Invalid_argument] if [addr] is negative. *)

val access_many : t -> proc:int -> int array -> int
(** Issue all addresses in order; returns the number of misses.  Raises
    [Invalid_argument] at the first negative address. *)

val accesses : t -> int
(** Total references issued (all processors). *)

val misses : t -> int

val miss_rate : t -> float
(** misses / accesses, in percent; 0 if no accesses. *)

val proc_misses : t -> int -> int
