(* Parallel mergesort with parallel merge.  One core sorts an [int
   array]; [sort] runs it on the input itself when every element is an
   immediate, and on an index array otherwise (DESIGN.md §10).  Being
   monomorphic, the core reads with plain loads (no flat-float-array
   test) and writes with plain stores (no [caml_modify]).  [msort] sorts
   src[lo,hi) leaving the result in src or in the scratch array;
   alternating the direction of the recursion avoids copying at every
   level.  Ranges at most [cutoff] long take the same recursion without
   forking, down to insertion-sorted runs, so the serial part allocates
   nothing.  Serial merges select rather than branch, in two streams
   split as a forked merge splits (DESIGN.md §10).  Each kernel is
   written once and compiled twice: under [Int.compare] it compares
   inline, under any other order it calls [cmp]. *)

let sorted ~cmp arr =
  let n = Array.length arr in
  let rec go i = i >= n - 1 || (cmp arr.(i) arr.(i + 1) <= 0 && go (i + 1)) in
  go 0

(* [x <= y] and [x < y] under the sort's order.  At every call [native]
   is a constant, true when the order is [Int.compare], under which
   [cmp x y <= 0] is [x <= y] on every pair of ints; the compiler folds
   the test, so an [Int.compare] instance makes no call per element. *)
let[@inline] le ~native ~cmp (x : int) y = if native then x <= y else cmp x y <= 0

let[@inline] lt ~native ~cmp (x : int) y = if native then x < y else cmp x y < 0

(* Least index in [lo,hi) of src whose element is >= x (binary search in a
   sorted range). *)
let[@inline] lower_bound ~native ~cmp (src : int array) x lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if lt ~native ~cmp src.(mid) x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Serial ranges at most this long are insertion-sorted. *)
let run_length = 16

(* Insertion-sort src[lo,hi) into dst[lo,hi); [dst] may be [src]. *)
let[@inline] insertion ~native ~cmp (src : int array) (dst : int array) lo hi =
  for i = lo to hi - 1 do
    let x = src.(i) in
    let j = ref i in
    while !j > lo && not (le ~native ~cmp dst.(!j - 1) x) do
      dst.(!j) <- dst.(!j - 1);
      decr j
    done;
    dst.(!j) <- x
  done

(* Merge run 1 = src[i,e1) and run 2 = src[j,e2) into dst from d,
   taking run 1's head on a tie.  Each step selects the element with a
   mask rather than a branch on the comparison, which random keys would
   mispredict half the time; the tails are plain copies. *)
let[@inline] merge1 ~native ~cmp (src : int array) (dst : int array) i e1 j e2 d =
  let i = ref i and j = ref j and d = ref d in
  while !i < e1 && !j < e2 do
    let x = src.(!i) and y = src.(!j) in
    let c = Bool.to_int (le ~native ~cmp x y) in
    dst.(!d) <- y lxor ((x lxor y) land (-c));
    i := !i + c;
    j := !j + 1 - c;
    incr d
  done;
  while !i < e1 do
    dst.(!d) <- src.(!i);
    incr i;
    incr d
  done;
  while !j < e2 do
    dst.(!d) <- src.(!j);
    incr j;
    incr d
  done

(* The two halves of a split merge (see [sort_ints]) as [merge1]'s
   streams, src[lo1,m1) with src[lo2,m2) from dlo and src(m1,hi1) with
   src[m2,hi2) from just past the split element's slot, advanced one step
   each per iteration until either runs out.  A select's loads wait on
   the previous step's compare; two independent streams keep two such
   chains in flight, which matters most when [cmp] itself loads (the
   index path).  It takes the split, not the four ranges, and finds the
   split element's slot itself: at 12 or more arguments every executable
   that links it would gain a [caml_curry12] in its startup code, ahead
   of all other OCaml code, and every function would move by ~7 KB. *)
let[@inline] merge2 ~native ~cmp (src : int array) (dst : int array) lo1 m1 hi1 lo2 m2 hi2 dlo =
  let i1 = ref lo1 and j1 = ref lo2 and d1 = ref dlo in
  let i2 = ref (m1 + 1) and j2 = ref m2 and d2 = ref (dlo + (m1 - lo1) + (m2 - lo2) + 1) in
  while !i1 < m1 && !j1 < m2 && !i2 < hi1 && !j2 < hi2 do
    let x1 = src.(!i1) and y1 = src.(!j1) in
    let x2 = src.(!i2) and y2 = src.(!j2) in
    let c1 = Bool.to_int (le ~native ~cmp x1 y1) in
    let c2 = Bool.to_int (le ~native ~cmp x2 y2) in
    dst.(!d1) <- y1 lxor ((x1 lxor y1) land (-c1));
    dst.(!d2) <- y2 lxor ((x2 lxor y2) land (-c2));
    i1 := !i1 + c1;
    j1 := !j1 + 1 - c1;
    incr d1;
    i2 := !i2 + c2;
    j2 := !j2 + 1 - c2;
    incr d2
  done;
  merge1 ~native ~cmp src dst !i1 m1 !j1 m2 !d1;
  merge1 ~native ~cmp src dst !i2 hi1 !j2 hi2 !d2

(* The kernels' two instances.  The [_int] ones are [Int.compare]'s and
   call nothing per element; test/inline_guard.ml checks their machine
   code, since Closure-mode ocamlopt drops an [@inline] it cannot honour
   without a warning. *)
let lower_bound_int src x lo hi = lower_bound ~native:true ~cmp:Int.compare src x lo hi

let insertion_int src dst lo hi = insertion ~native:true ~cmp:Int.compare src dst lo hi

let merge2_int src dst lo1 m1 hi1 lo2 m2 hi2 dlo =
  merge2 ~native:true ~cmp:Int.compare src dst lo1 m1 hi1 lo2 m2 hi2 dlo

let lower_bound_cmp ~cmp src x lo hi = lower_bound ~native:false ~cmp src x lo hi

let insertion_cmp ~cmp src dst lo hi = insertion ~native:false ~cmp src dst lo hi

let merge2_cmp ~cmp src dst lo1 m1 hi1 lo2 m2 hi2 dlo =
  merge2 ~native:false ~cmp src dst lo1 m1 hi1 lo2 m2 hi2 dlo

(* The core: sort [arr] in place under [cmp], or under [Int.compare] if
   [native]; the test picks a kernel instance once per leaf. *)
let sort_ints ~cutoff ~native ~(cmp : int -> int -> int) (arr : int array) =
  let n = Array.length arr in
  let scratch = Array.copy arr in
  (* merge src[lo1,hi1) and src[lo2,hi2) into dst starting at dlo *)
  let rec merge (src : int array) (dst : int array) lo1 hi1 lo2 hi2 dlo =
    let n1 = hi1 - lo1 and n2 = hi2 - lo2 in
    if n1 < n2 then merge src dst lo2 hi2 lo1 hi1 dlo
    else if n1 = 0 then ()
    else begin
      (* split the larger run at its median, binary-search the other *)
      let m1 = (lo1 + hi1) / 2 in
      let m2 =
        if native then lower_bound_int src src.(m1) lo2 hi2
        else lower_bound_cmp ~cmp src src.(m1) lo2 hi2
      in
      let dmid = dlo + (m1 - lo1) + (m2 - lo2) in
      dst.(dmid) <- src.(m1);
      if n1 + n2 <= cutoff then
        if native then merge2_int src dst lo1 m1 hi1 lo2 m2 hi2 dlo
        else merge2_cmp ~cmp src dst lo1 m1 hi1 lo2 m2 hi2 dlo
      else begin
        Pool.alloc_hint ((n1 + n2) * 8);
        let (), () =
          Pool.fork_join
            (fun () -> merge src dst lo1 m1 lo2 m2 dlo)
            (fun () -> merge src dst (m1 + 1) hi1 m2 hi2 (dmid + 1))
        in
        ()
      end
    end
  in
  (* sort src[lo,hi); the result lands in src if [into_src], else in dst *)
  let rec msort src dst lo hi into_src =
    if hi - lo <= cutoff && hi - lo <= run_length then begin
      let dst = if into_src then src else dst in
      if native then insertion_int src dst lo hi else insertion_cmp ~cmp src dst lo hi
    end
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
    if Obj.repr cmp == Obj.repr Int.compare then
      (* only an [int array] can be sorted under [Int.compare] *)
      sort_ints ~cutoff ~native:true ~cmp:Int.compare (Obj.magic arr : int array)
    else if all_immediate arr then
      (* the core's stores put immediates over immediates, which needs no
         write barrier (DESIGN.md §10) *)
      sort_ints ~cutoff ~native:false ~cmp:(Obj.magic cmp : int -> int -> int)
        (Obj.magic arr : int array)
    else begin
      (* the same comparisons on indices, then one permutation *)
      let idx = Array.init n Fun.id in
      sort_ints ~cutoff ~native:false ~cmp:(fun i j -> cmp arr.(i) arr.(j)) idx;
      let copy = Array.copy arr in
      Array.iteri (fun k i -> arr.(k) <- copy.(i)) idx
    end
