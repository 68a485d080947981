(* Parallel mergesort with parallel merge.  One core sorts an [int
   array]; [sort] runs it on the input itself when every element is an
   immediate, and on an index array otherwise (DESIGN.md §10).  Being
   monomorphic, the core reads with plain loads (no flat-float-array
   test) and writes with plain stores (no [caml_modify]).  [msort] sorts
   src[lo,hi) leaving the result in src or in the scratch array;
   alternating the direction of the recursion avoids copying at every
   level.  Ranges at most [cutoff] long take the same recursion without
   forking, down to insertion-sorted runs, so the serial part allocates
   nothing. *)

let sorted ~cmp arr =
  let n = Array.length arr in
  let rec go i = i >= n - 1 || (cmp arr.(i) arr.(i + 1) <= 0 && go (i + 1)) in
  go 0

(* Least index in [lo,hi) of src whose element is >= x (binary search in a
   sorted range). *)
let lower_bound ~cmp (src : int array) x lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp src.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Serial ranges at most this long are insertion-sorted. *)
let run_length = 16

(* Insertion-sort src[lo,hi) into dst[lo,hi); [dst] may be [src]. *)
let insertion ~cmp (src : int array) (dst : int array) lo hi =
  for i = lo to hi - 1 do
    let x = src.(i) in
    let j = ref i in
    while !j > lo && cmp dst.(!j - 1) x > 0 do
      dst.(!j) <- dst.(!j - 1);
      decr j
    done;
    dst.(!j) <- x
  done

(* The core: sort [arr] in place under [cmp]. *)
let sort_ints ~cutoff ~(cmp : int -> int -> int) (arr : int array) =
  let n = Array.length arr in
  let scratch = Array.copy arr in
  (* merge src[lo1,hi1) and src[lo2,hi2) into dst starting at dlo *)
  let rec merge (src : int array) (dst : int array) lo1 hi1 lo2 hi2 dlo =
    let n1 = hi1 - lo1 and n2 = hi2 - lo2 in
    if n1 < n2 then merge src dst lo2 hi2 lo1 hi1 dlo
    else if n1 = 0 then ()
    else if n1 + n2 <= cutoff then begin
      (* serial two-finger merge *)
      let i = ref lo1 and j = ref lo2 and d = ref dlo in
      while !i < hi1 && !j < hi2 do
        if cmp src.(!i) src.(!j) <= 0 then begin
          dst.(!d) <- src.(!i);
          incr i
        end
        else begin
          dst.(!d) <- src.(!j);
          incr j
        end;
        incr d
      done;
      while !i < hi1 do
        dst.(!d) <- src.(!i);
        incr i;
        incr d
      done;
      while !j < hi2 do
        dst.(!d) <- src.(!j);
        incr j;
        incr d
      done
    end
    else begin
      (* split the larger run at its median, binary-search the other *)
      let m1 = (lo1 + hi1) / 2 in
      let m2 = lower_bound ~cmp src src.(m1) lo2 hi2 in
      let dmid = dlo + (m1 - lo1) + (m2 - lo2) in
      dst.(dmid) <- src.(m1);
      Pool.alloc_hint ((n1 + n2) * 8);
      let (), () =
        Pool.fork_join
          (fun () -> merge src dst lo1 m1 lo2 m2 dlo)
          (fun () -> merge src dst (m1 + 1) hi1 m2 hi2 (dmid + 1))
      in
      ()
    end
  in
  (* sort src[lo,hi); the result lands in src if [into_src], else in dst *)
  let rec msort src dst lo hi into_src =
    if hi - lo <= cutoff && hi - lo <= run_length then
      insertion ~cmp src (if into_src then src else dst) lo hi
    else begin
      let mid = (lo + hi) / 2 in
      if hi - lo > cutoff then begin
        let (), () =
          Pool.fork_join
            (fun () -> msort src dst lo mid (not into_src))
            (fun () -> msort src dst mid hi (not into_src))
        in
        ()
      end
      else begin
        (* no closures below the cutoff *)
        msort src dst lo mid (not into_src);
        msort src dst mid hi (not into_src)
      end;
      (* halves are sorted in the opposite array; merge back *)
      if into_src then merge dst src lo mid mid hi lo else merge src dst lo mid mid hi lo
    end
  in
  msort arr scratch 0 n true

(* Every element is an immediate.  A flat [float array] fails at index 0:
   the polymorphic read boxes the float. *)
let all_immediate arr =
  let n = Array.length arr in
  let rec go i = i >= n || (Obj.is_int (Obj.repr arr.(i)) && go (i + 1)) in
  go 0

let sort ?(cutoff = 2048) ~cmp arr =
  if cutoff < 1 then invalid_arg "Psort.sort: cutoff must be positive";
  let n = Array.length arr in
  if n > 1 then
    if all_immediate arr then
      (* the core's stores put immediates over immediates, which needs no
         write barrier (DESIGN.md §10) *)
      sort_ints ~cutoff ~cmp:(Obj.magic cmp : int -> int -> int) (Obj.magic arr : int array)
    else begin
      (* the same comparisons on indices, then one permutation *)
      let idx = Array.init n Fun.id in
      sort_ints ~cutoff ~cmp:(fun i j -> cmp arr.(i) arr.(j)) idx;
      let copy = Array.copy arr in
      Array.iteri (fun k i -> arr.(k) <- copy.(i)) idx
    end
