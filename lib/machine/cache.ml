type t = {
  (* The geometry as shifts and a mask (Config.validate_cache makes line
     and set counts powers of two): line = addr lsr line_shift, set =
     line land set_mask, tag = line lsr set_shift. *)
  line_shift : int;
  set_mask : int;
  set_shift : int;
  assoc : int;
  (* tags.(proc).(set * assoc + way): cached line tag, -1 = empty.  Each
     set's ways are in recency order: way 0 is the most recently used, and
     empty ways sit at the end. *)
  tags : int array array;
  mutable n_access : int;
  mutable n_miss : int;
  per_proc_miss : int array;
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create geo ~p =
  Config.validate_cache geo;
  let { Config.line_words; n_sets; assoc } = geo in
  let slots = n_sets * assoc in
  {
    line_shift = log2 line_words;
    set_mask = n_sets - 1;
    set_shift = log2 n_sets;
    assoc;
    tags = Array.init p (fun _ -> Array.make slots (-1));
    n_access = 0;
    n_miss = 0;
    per_proc_miss = Array.make p 0;
  }

(* The kernel reads and writes with [Array.unsafe_get]/[unsafe_set], all in
   range by construction: [i < Array.length addrs]; [addr >= 0] is checked
   before any index is formed, so [line >= 0] and
   [0 <= line land set_mask < n_sets]; hence [base = set * assoc] and every
   way touched, [base + w] with [0 <= w < assoc], lies in
   [0, n_sets * assoc), the length of [tags] (Cache.create).  [t.tags.(proc)]
   stays checked: [proc] comes from the caller. *)
let access_many t ~proc addrs =
  let tags = t.tags.(proc) in
  let { line_shift; set_mask; set_shift; assoc; _ } = t in
  let misses = ref 0 in
  for i = 0 to Array.length addrs - 1 do
    let addr = Array.unsafe_get addrs i in
    (* a negative tag would alias the empty marker -1 *)
    if addr < 0 then invalid_arg "Cache.access: negative address";
    let line = addr lsr line_shift in
    let tag = line lsr set_shift in
    let base = (line land set_mask) * assoc in
    (* A hit on the most recent way changes nothing. *)
    if Array.unsafe_get tags base <> tag then begin
      (* A tag sits in at most one way of its set: stop at the first match.
         On a miss the shift runs over the whole set and drops the last
         way, the least recently used (or an empty one). *)
      let last = base + assoc - 1 in
      let way = ref (base + 1) in
      while !way <= last && Array.unsafe_get tags !way <> tag do
        incr way
      done;
      if !way > last then begin
        way := last;
        incr misses
      end;
      for w = !way downto base + 1 do
        Array.unsafe_set tags w (Array.unsafe_get tags (w - 1))
      done;
      Array.unsafe_set tags base tag
    end
  done;
  t.n_access <- t.n_access + Array.length addrs;
  t.n_miss <- t.n_miss + !misses;
  t.per_proc_miss.(proc) <- t.per_proc_miss.(proc) + !misses;
  !misses

let access t ~proc ~addr = access_many t ~proc [| addr |] = 1

let accesses t = t.n_access

let misses t = t.n_miss

let miss_rate t =
  if t.n_access = 0 then 0.0 else 100.0 *. float_of_int t.n_miss /. float_of_int t.n_access

let proc_misses t proc = t.per_proc_miss.(proc)
