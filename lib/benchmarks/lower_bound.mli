(** The Theorem 4.5 / Figure 10 adversarial dag.

    A binary fork tree of depth [log2(p/2)] whose leaves are [p/2]
    subgraphs.  The leftmost subgraph G0 is a serial chain of ~2d nodes
    (it keeps one processor busy and pins the dag's depth).  Each other
    subgraph G forks [d] threads along a spine; the j-th thread's first
    node {e allocates} A bytes, holds them across ~2(d-j) timesteps of
    work, and frees them just before terminating, so its +A and -A are
    separated by the join bounce — the serial 1DF schedule runs the d
    threads one after another (S1 = A plus the root's epsilon), while a
    scheduler that steals the spine prematurely materialises up to d
    simultaneous allocations per subgraph and Omega(min(K,S1) * p * D)
    space overall.

    [a_bytes] plays the role of A = min(K, S1). *)

val prog : p:int -> d:int -> a_bytes:int -> unit -> Dfd_dag.Prog.t

val bench : ?p:int -> ?d:int -> ?a_bytes:int -> Workload.grain -> Workload.t
