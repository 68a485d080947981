(* Deficit round-robin over per-tenant FIFOs.  Job cost is one
   credit, so a tenant's turn dispatches at most [weight] jobs before
   the pointer advances; an empty lane forfeits its leftover credit
   (work conservation).  All state is driven from one thread. *)

type 'a lane = {
  name : string;
  weight : int;
  mutable front : 'a list;  (* next to dispatch, in order *)
  mutable back : 'a list;  (* newest first *)
  mutable depth : int;
  mutable peak : int;
}

type 'a t = {
  mutable lanes : 'a lane array;
  mutable cur : int;  (* index of the lane whose turn it is *)
  mutable credit : int;  (* remaining credits of the current turn *)
  mutable total : int;
}

let create () = { lanes = [||]; cur = 0; credit = 0; total = 0 }

let find t name =
  let n = Array.length t.lanes in
  let rec go i =
    if i >= n then invalid_arg (Printf.sprintf "Fair_queue: unknown tenant %S" name)
    else if t.lanes.(i).name = name then t.lanes.(i)
    else go (i + 1)
  in
  go 0

let add_tenant t ~name ~weight =
  if weight < 1 then invalid_arg "Fair_queue.add_tenant: weight must be >= 1";
  if Array.exists (fun l -> l.name = name) t.lanes then
    invalid_arg (Printf.sprintf "Fair_queue.add_tenant: duplicate tenant %S" name);
  let lane = { name; weight; front = []; back = []; depth = 0; peak = 0 } in
  t.lanes <- Array.append t.lanes [| lane |];
  (* the first registered lane opens the first turn *)
  if Array.length t.lanes = 1 then t.credit <- lane.weight

let push t ~tenant x =
  let lane = find t tenant in
  lane.back <- x :: lane.back;
  lane.depth <- lane.depth + 1;
  if lane.depth > lane.peak then lane.peak <- lane.depth;
  t.total <- t.total + 1

let push_front t ~tenant x =
  let lane = find t tenant in
  lane.front <- x :: lane.front;
  lane.depth <- lane.depth + 1;
  if lane.depth > lane.peak then lane.peak <- lane.depth;
  t.total <- t.total + 1

let dequeue t lane =
  (match lane.front with
   | [] ->
     lane.front <- List.rev lane.back;
     lane.back <- []
   | _ -> ());
  match lane.front with
  | [] -> assert false
  | x :: rest ->
    lane.front <- rest;
    lane.depth <- lane.depth - 1;
    t.total <- t.total - 1;
    x

let pop t =
  if t.total = 0 then None
  else begin
    let n = Array.length t.lanes in
    (* at most n lane advances reach a non-empty lane with fresh credit *)
    let rec go scanned =
      if scanned > n then None
      else begin
        let lane = t.lanes.(t.cur) in
        if t.credit > 0 && lane.depth > 0 then begin
          t.credit <- t.credit - 1;
          Some (lane.name, dequeue t lane)
        end
        else begin
          t.cur <- (t.cur + 1) mod n;
          t.credit <- t.lanes.(t.cur).weight;
          go (scanned + 1)
        end
      end
    in
    go 0
  end

let depth t name = (find t name).depth

let peak_depth t name = (find t name).peak

let total t = t.total
