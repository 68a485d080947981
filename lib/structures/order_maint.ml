type label = {
  mutable tag : int;
  mutable live : bool;
  mutable l_prev : label option;
  mutable l_next : label option;
}

type t = {
  mutable first : label;
  mutable n : int;
}

(* Tags live in [0, max_tag]; we keep them spread out so gaps usually
   exist.  62-bit space leaves headroom for the midpoint computation. *)
let max_tag = 1 lsl 60

let create () =
  let base = { tag = max_tag / 2; live = true; l_prev = None; l_next = None } in
  ({ first = base; n = 1 }, base)

let size t = t.n

let check l = if not l.live then invalid_arg "Order_maint: dead label"

let compare a b =
  check a;
  check b;
  Stdlib.compare a.tag b.tag

(* Spread all labels evenly across the tag space. *)
let relabel t =
  let gap = max 1 (max_tag / (t.n + 1)) in
  let rec walk node tag =
    node.tag <- tag;
    match node.l_next with None -> () | Some nx -> walk nx (tag + gap)
  in
  walk t.first gap

let link_after t anchor fresh =
  fresh.l_prev <- Some anchor;
  fresh.l_next <- anchor.l_next;
  (match anchor.l_next with Some nx -> nx.l_prev <- Some fresh | None -> ());
  anchor.l_next <- Some fresh;
  t.n <- t.n + 1

let link_before t anchor fresh =
  fresh.l_next <- Some anchor;
  fresh.l_prev <- anchor.l_prev;
  (match anchor.l_prev with
   | Some pv -> pv.l_next <- Some fresh
   | None -> t.first <- fresh);
  anchor.l_prev <- Some fresh;
  t.n <- t.n + 1

let rec insert_after t anchor =
  check anchor;
  let hi = match anchor.l_next with Some nx -> nx.tag | None -> max_tag in
  if hi - anchor.tag >= 2 then begin
    let fresh =
      { tag = anchor.tag + ((hi - anchor.tag) / 2); live = true; l_prev = None; l_next = None }
    in
    link_after t anchor fresh;
    fresh
  end
  else begin
    relabel t;
    insert_after t anchor
  end

let rec insert_before t anchor =
  check anchor;
  let lo = match anchor.l_prev with Some pv -> pv.tag | None -> 0 in
  if anchor.tag - lo >= 2 then begin
    let fresh =
      { tag = lo + ((anchor.tag - lo) / 2); live = true; l_prev = None; l_next = None }
    in
    link_before t anchor fresh;
    fresh
  end
  else begin
    relabel t;
    insert_before t anchor
  end

let delete t l =
  check l;
  l.live <- false;
  (match l.l_prev with
   | Some pv -> pv.l_next <- l.l_next
   | None -> (match l.l_next with Some nx -> t.first <- nx | None -> ()));
  (match l.l_next with Some nx -> nx.l_prev <- l.l_prev | None -> ());
  l.l_prev <- None;
  l.l_next <- None;
  t.n <- t.n - 1
