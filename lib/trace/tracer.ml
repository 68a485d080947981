(* One bounded ring per lane, each written by a single writer.  A lane
   keeps only its [written] count: the event of arrival [a] sits in slot
   [a mod capacity], so the retained window is arrivals
   [max 0 (written - capacity) .. written - 1] and needs no per-slot
   bookkeeping. *)
type lane = {
  ring : Event.t array;
  mutable written : int;  (** events this lane ever took, overwritten ones included. *)
  kind_counts : int array;  (** per category, exact after overwrites. *)
}

type t = { enabled : bool; capacity : int; lanes : lane array }

(* Fills never-written slots; [ts < 0] marks it, so a torn read during a
   concurrent dump surfaces as a dropped slot, never as a fake event. *)
let sentinel : Event.t = { ts = -1; proc = -1; tid = -1; kind = Event.Dummy_exec }

let disabled = { enabled = false; capacity = 0; lanes = [||] }

let create ?(capacity = 1 lsl 20) ?(lanes = 1) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  if lanes <= 0 then invalid_arg "Tracer.create: lanes must be positive";
  {
    enabled = true;
    capacity;
    lanes =
      Array.init lanes (fun _ ->
          {
            ring = Array.make capacity sentinel;
            written = 0;
            kind_counts = Array.make Event.n_kinds 0;
          });
  }

let enabled t = t.enabled

let lanes t = Array.length t.lanes

let emit t ~ts ~proc ~tid kind =
  if t.enabled then begin
    let n = Array.length t.lanes in
    let l = t.lanes.(if proc >= 0 && proc < n then proc else n - 1) in
    let k = Event.kind_index kind in
    l.kind_counts.(k) <- l.kind_counts.(k) + 1;
    l.ring.(l.written mod t.capacity) <- { Event.ts; proc; tid; kind };
    l.written <- l.written + 1
  end

let sum f t = Array.fold_left (fun acc l -> acc + f l) 0 t.lanes

let length t = sum (fun l -> min l.written t.capacity) t

let dropped t = sum (fun l -> max 0 (l.written - t.capacity)) t

let total t = sum (fun l -> l.written) t

(* A lane's retained events in arrival order.  [written] is read once, so
   a concurrent writer can at worst replace the oldest slots mid-read. *)
let lane_events t l =
  let w = l.written in
  let acc = ref [] in
  for a = w - 1 downto max 0 (w - t.capacity) do
    let e = l.ring.(a mod t.capacity) in
    if e.Event.ts >= 0 then acc := e :: !acc
  done;
  !acc

let events t =
  match t.lanes with
  | [| l |] -> lane_events t l
  | lanes ->
    (* lane-major, arrival order within a lane: the stable sort on
       (ts, lane) yields (ts, lane, arrival) *)
    Array.to_list lanes
    |> List.mapi (fun li l -> List.map (fun e -> (li, e)) (lane_events t l))
    |> List.concat
    |> List.stable_sort (fun (l1, (e1 : Event.t)) (l2, (e2 : Event.t)) ->
           compare (e1.ts, l1) (e2.ts, l2))
    |> List.map snd

let count t kind =
  let k = Event.kind_index kind in
  sum (fun l -> l.kind_counts.(k)) t

let clear t =
  Array.iter
    (fun l ->
      l.written <- 0;
      Array.fill l.kind_counts 0 Event.n_kinds 0)
    t.lanes

let to_json ?snapshot ~reason t =
  Json.Assoc
    [
      ( "flight",
        Json.Assoc
          ([
             ("reason", Json.String reason);
             ("lanes", Json.Int (lanes t));
             ("capacity", Json.Int t.capacity);
             ("recorded", Json.Int (total t));
             ("dropped", Json.Int (dropped t));
             ("events", Json.List (List.map Event.to_json (events t)));
           ]
           @ match snapshot with None -> [] | Some s -> [ ("snapshot", Json.String s) ]) );
    ]

let write_file ?snapshot ~path ~reason t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json ?snapshot ~reason t);
      output_char oc '\n')
