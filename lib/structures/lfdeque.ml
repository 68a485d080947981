(* Single-word-CAS lock-free deque, the one per-processor deque of both
   pool disciplines (after Sundell & Tsigas's CAS-only deques and
   Chase–Lev's owner/thief split; see DESIGN.md §16).  Work stealing uses
   the owner/thief operations alone; DFDeques(∞) is work stealing, so
   the same structure serves both.

   The pool's DFDeques paths need three things beyond a plain
   work-stealing deque, and this module builds them in so the pool can
   drop its per-deque mutex entirely:

   - owner push/pop at the bottom end and thief steals at the top end,
     all arbitrated by single-word CAS (the only blocking left in the
     discipline is the scheduler's own idle parking);
   - a sticky ownership certificate: [abandon] publishes the quota
     give-up by storing [None] into the atomic [owner] field, exactly
     once — a deque is never re-owned, so after abandonment no push can
     ever occur and the element count only shrinks;
   - the death certificate [is_dead]: [owner = None && is_empty],
     readable without any lock.  Because abandonment is sticky and
     pushes are owner-only, emptiness observed *after* reading
     [owner = None] is stable, so "dead" is a one-way state and a reaper
     that sees it can remove the deque from R knowing no task can ever
     be stranded inside it.

   Layout is Chase–Lev: logical indices [top, bottom) name the live
   elements in a circular buffer of Atomic cells; the owner pushes/pops
   at [bottom], thieves CAS [top] forward.  OCaml [Atomic] is
   sequentially consistent, which supplies both fences the algorithm
   needs (publication: cell write before bottom publish; the Dekker
   handshake: pop writes the lowered bottom before reading top).  All
   index comparisons go through wraparound subtraction so the
   monotonically increasing indices survive crossing max_int (the
   [create_at] biased-start tests drive this).

   Every operation threads [Schedpoint] yield points through its CAS
   windows so the lib/check explorer can interleave owner, thief and
   reaper adversarially; in production each point is one atomic load.

   Synchronization-op accounting: each mutating operation optionally
   bumps an [ops] cell by the number of atomic RMW/store operations it
   actually executed (CAS attempts included, plain loads excluded) — the
   fork/join sync-op metric of Rito & Paulino that the pool aggregates
   per worker into [(Pool.counters p).sync_ops], under either policy. *)

module Schedpoint = Schedpoint

type 'a buf = { mask : int; cells : 'a option Atomic.t array }

type 'a t = {
  top : int Atomic.t;  (* next index to steal; only ever increases *)
  bottom : int Atomic.t;  (* next index to push; owner-written only *)
  buf : 'a buf Atomic.t;
  owner : int option Atomic.t;  (* Some w -> None, once, never back *)
}

let mk_buf cap = { mask = cap - 1; cells = Array.init cap (fun _ -> Atomic.make None) }

let cell b i = b.cells.(i land b.mask)

let round_pow2 n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 1

let create ?(min_capacity = 16) ?owner () =
  let cap = round_pow2 (max 2 min_capacity) in
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Atomic.make (mk_buf cap);
    owner = Atomic.make owner;
  }

(* Biased-start constructor: the logical indices begin at [index] so the
   wraparound discipline can be exercised right at the max_int boundary
   without pushing 2^62 elements first. *)
let create_at ?min_capacity ?owner ~index () =
  let q = create ?min_capacity ?owner () in
  Atomic.set q.top index;
  Atomic.set q.bottom index;
  q

let bump ops n = match ops with None -> () | Some r -> r := !r + n

(* ------------------------------------------------------------------ *)
(* Ownership lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

let owner q = Atomic.get q.owner

(* Sticky: the one-way Some -> None store that publishes a quota
   give-up.  Only the owner calls this (its own thread), so a plain
   store suffices — there is no competing writer; the atomicity matters
   for the readers racing it. *)
let abandon ?ops q =
  Schedpoint.point Schedpoint.lfdeque_abandon;
  Atomic.set q.owner None;
  bump ops 1

(* Death certificate.  Order matters: read [owner] first, then
   emptiness.  Once [owner = None] is observed, no push can follow (the
   abandoning owner forgot its handle before the store became visible,
   and a deque is never re-owned), so the element count is monotonically
   shrinking and "empty" observed afterwards is stable forever. *)
let is_dead q =
  let unowned = Atomic.get q.owner = None in
  Schedpoint.point Schedpoint.lfdeque_reap;
  unowned && Atomic.get q.bottom - Atomic.get q.top <= 0

(* ------------------------------------------------------------------ *)
(* Owner operations (bottom end)                                       *)
(* ------------------------------------------------------------------ *)

(* Owner only: copy [t, b) into a doubled buffer and publish it.  Old
   buffers are never written again, so a thief holding a pre-resize
   buffer still reads the correct value for any index whose CAS it can
   win. *)
let grow ops q b t old =
  let nb = mk_buf (2 * (old.mask + 1)) in
  for off = 0 to b - t - 1 do
    Atomic.set (cell nb (t + off)) (Atomic.get (cell old (t + off)))
  done;
  Schedpoint.point Schedpoint.lfdeque_grow_publish;
  Atomic.set q.buf nb;
  bump ops 1;
  nb

let push ?ops q x =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  let buf = Atomic.get q.buf in
  let buf = if b - t > buf.mask then grow ops q b t buf else buf in
  Schedpoint.point Schedpoint.lfdeque_push_cell;
  Atomic.set (cell buf b) (Some x);
  Schedpoint.point Schedpoint.lfdeque_push_publish;
  Atomic.set q.bottom (b + 1);
  bump ops 2

(* Take the value out of a won cell, clearing it so the deque does not
   retain the element (tasks are closures; holding them leaks). *)
let take c =
  let x = Atomic.get c in
  Atomic.set c None;
  x

let pop ?ops q =
  let b = Atomic.get q.bottom - 1 in
  let buf = Atomic.get q.buf in
  Atomic.set q.bottom b;
  bump ops 1;
  Schedpoint.point Schedpoint.lfdeque_pop_reserve;
  (* SC: the [bottom] write above is ordered before this [top] read — the
     Dekker handshake that funnels the last-element race into the CAS *)
  let t = Atomic.get q.top in
  let d = b - t in
  if d < 0 then begin
    (* already empty: undo the reservation *)
    Atomic.set q.bottom t;
    bump ops 1;
    None
  end
  else if d = 0 then begin
    (* single element left: race thieves for it via the top CAS *)
    Schedpoint.point Schedpoint.lfdeque_pop_race;
    let won = Atomic.compare_and_set q.top t (t + 1) in
    Atomic.set q.bottom (t + 1);
    bump ops 2;
    if won then begin
      bump ops 1;
      take (cell buf b)
    end
    else None
  end
  else begin
    bump ops 1;
    take (cell buf b)
  end

(* ------------------------------------------------------------------ *)
(* Thief operation (top end)                                           *)
(* ------------------------------------------------------------------ *)

let steal ?ops q =
  let t = Atomic.get q.top in
  Schedpoint.point Schedpoint.lfdeque_steal_read;
  let b = Atomic.get q.bottom in
  if b - t <= 0 then None
  else begin
    let buf = Atomic.get q.buf in
    (* read the candidate before the CAS: once the CAS wins the slot is
       ours, and nobody rewrites what we read (a rewrite requires
       winning index [t], i.e. our CAS failing) *)
    let x = Atomic.get (cell buf t) in
    Schedpoint.point Schedpoint.lfdeque_steal_cell;
    bump ops 1;
    if Atomic.compare_and_set q.top t (t + 1) then begin
      bump ops 1;
      x
    end
    else None
  end

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let length q = max 0 (Atomic.get q.bottom - Atomic.get q.top)

let is_empty q = length q = 0

let capacity q = (Atomic.get q.buf).mask + 1
