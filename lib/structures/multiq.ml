(* Relaxed MultiQueue R-list: c·p sharded sorted arrays republished by
   CAS, two-choice victim sampling, and lock-free order labels in the
   style of Order_maint (tag midpoints; CAS gap-splitting instead of
   relabelling).  See the .mli and DESIGN.md §15 for the design and the
   memory-ordering audit.

   Schedpoint.multiq_insert/remove/sample yield points mark the CAS
   retry windows so the
   schedule explorer can interleave membership operations adversarially;
   in production each point is one atomic load. *)

(* Tag space mirrors Order_maint: front insertions march left from the
   middle of a 60-bit space in [front_stride] steps, and each entry owns
   the half-open gap (tag, bound) for its insert-after children.  2^30
   between consecutive front entries allows 30 nested gap splits before
   children start tying with their anchor (ties are bounded rank error,
   not failures); front tags may go negative after 2^29 front
   insertions, which still orders correctly. *)
let max_tag = 1 lsl 60

let front_stride = 1 lsl 30

type 'a entry = {
  e_tag : int;
  e_bound : int Atomic.t;  (** right edge of this entry's child gap. *)
  e_seq : int;  (** unique insertion sequence number; tie-break. *)
  e_shard : int;
  e_value : 'a;
  e_live : bool Atomic.t;
}

type 'a t = {
  shards : 'a entry array Atomic.t array;
  n_shards : int;
  next_front : int Atomic.t;  (** tag of the next front insertion. *)
  next_seq : int Atomic.t;
  next_shard : int Atomic.t;  (** round-robin placement cursor. *)
  population : int Atomic.t;
}

let create ?(shards = 8) () =
  let n = max 1 shards in
  {
    shards = Array.init n (fun _ -> Atomic.make [||]);
    n_shards = n;
    next_front = Atomic.make (max_tag / 2);
    next_seq = Atomic.make 0;
    next_shard = Atomic.make 0;
    population = Atomic.make 0;
  }

let shard_count t = t.n_shards

let size t = Atomic.get t.population

let value e = e.e_value

let is_live e = Atomic.get e.e_live

let shard_of e = e.e_shard

let tag e = e.e_tag

(* Tags ascending; on a tie the later insertion (larger seq) is more
   leftmost — it was inserted closer to the shared anchor, matching the
   DFDeques "thief sits immediately right of its victim" rule. *)
let compare_entries a b =
  if a.e_tag <> b.e_tag then compare a.e_tag b.e_tag else compare b.e_seq a.e_seq

(* ------------------------------------------------------------------ *)
(* Shard publication (CAS retry loops over immutable sorted arrays)     *)
(* ------------------------------------------------------------------ *)

let insert_sorted arr e =
  let n = Array.length arr in
  let out = Array.make (n + 1) e in
  let rec place i =
    if i < n && compare_entries arr.(i) e < 0 then begin
      out.(i) <- arr.(i);
      place (i + 1)
    end
    else
      for j = i to n - 1 do
        out.(j + 1) <- arr.(j)
      done
  in
  place 0;
  out

let without arr e =
  if Array.exists (fun x -> x == e) arr then
    Some (Array.of_list (List.filter (fun x -> x != e) (Array.to_list arr)))
  else None

(* Sync-op accounting: every atomic RMW (CAS attempts included, failed
   or not) and counter bump on the mutating paths charges the caller's
   optional [ops] cell — the pool aggregates these per worker into
   [(Pool.counters p).sync_ops].  Plain atomic loads are not counted. *)
let bump ops n = match ops with None -> () | Some r -> r := !r + n

let rec publish ops t e =
  let cell = t.shards.(e.e_shard) in
  let arr = Atomic.get cell in
  Schedpoint.point Schedpoint.multiq_insert;
  bump ops 1;
  if not (Atomic.compare_and_set cell arr (insert_sorted arr e)) then publish ops t e

let rec unpublish ops t e =
  let cell = t.shards.(e.e_shard) in
  let arr = Atomic.get cell in
  Schedpoint.point Schedpoint.multiq_remove;
  match without arr e with
  | None -> ()  (* already physically gone *)
  | Some arr' ->
    bump ops 1;
    if not (Atomic.compare_and_set cell arr arr') then unpublish ops t e

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)
(* ------------------------------------------------------------------ *)

let fresh t ~tag ~bound v =
  {
    e_tag = tag;
    e_bound = Atomic.make bound;
    e_seq = Atomic.fetch_and_add t.next_seq 1;
    e_shard = Atomic.fetch_and_add t.next_shard 1 mod t.n_shards;
    e_value = v;
    e_live = Atomic.make true;
  }

let insert ops t e =
  publish ops t e;
  Atomic.incr t.population;
  bump ops 1;
  e

let insert_front ?ops t v =
  let tag = Atomic.fetch_and_add t.next_front (-front_stride) in
  bump ops 3;  (* next_front + the two allocator RMWs in [fresh] *)
  insert ops t (fresh t ~tag ~bound:(tag + front_stride) v)

(* Split the anchor's right gap: the child takes the midpoint and
   inherits the upper half as its own child gap, so repeated splits
   nest exactly (each later child lands closer to the anchor — more
   leftmost — than its elder siblings).  Gap exhausted: tie with the
   anchor, broken by seq in [compare_entries]. *)
let rec alloc_after ops anchor =
  let b = Atomic.get anchor.e_bound in
  let gap = b - anchor.e_tag in
  if gap < 2 then (anchor.e_tag, b)
  else begin
    let mid = anchor.e_tag + (gap / 2) in
    Schedpoint.point Schedpoint.multiq_insert;
    bump ops 1;
    if Atomic.compare_and_set anchor.e_bound b mid then (mid, b) else alloc_after ops anchor
  end

let insert_after ?ops t anchor v =
  let tag, bound = alloc_after ops anchor in
  bump ops 2;  (* the two allocator RMWs in [fresh] *)
  insert ops t (fresh t ~tag ~bound v)

let remove ?ops t e =
  bump ops 1;
  if Atomic.compare_and_set e.e_live true false then begin
    Atomic.decr t.population;
    bump ops 1;
    unpublish ops t e;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Sampling and observation                                            *)
(* ------------------------------------------------------------------ *)

(* First live entry of the shard's current array.  Entries awaiting
   physical removal (dead but still published) are skipped. *)
let head_of arr =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if is_live arr.(i) then Some arr.(i) else go (i + 1) in
  go 0

let head t k = head_of (Atomic.get t.shards.(k mod t.n_shards))

let sample t i j =
  Schedpoint.point Schedpoint.multiq_sample;
  match (head t i, head t j) with
  | None, h | h, None -> h
  | Some a, Some b -> Some (if compare_entries a b <= 0 then a else b)

let fold_live t f acc =
  Array.fold_left
    (fun acc cell ->
       Array.fold_left (fun acc e -> if is_live e then f acc e else acc) acc (Atomic.get cell))
    acc t.shards

(* Top-level recursion over the raw shard arrays so a scan allocates
   nothing (a local closure over [f] and the array would be a fresh block
   per call): the pool's parkers run this before every sleep. *)
let rec exists_in f arr i =
  i < Array.length arr && ((is_live arr.(i) && f arr.(i).e_value) || exists_in f arr (i + 1))

let rec exists_from f t k =
  k < t.n_shards && (exists_in f (Atomic.get t.shards.(k)) 0 || exists_from f t (k + 1))

let exists f t = exists_from f t 0

let rank t e = fold_live t (fun n m -> if compare_entries m e < 0 then n + 1 else n) 0

let members t = List.sort compare_entries (fold_live t (fun acc e -> e :: acc) [])

let members_of_shard t k =
  List.filter is_live (Array.to_list (Atomic.get t.shards.(k mod t.n_shards)))

let to_list t = List.map value (members t)
