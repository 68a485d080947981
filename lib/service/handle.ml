type 'a status = Queued | Done of 'a

type 'a t = {
  id : int;
  tenant : string;
  mutable status : 'a status;
  mutable callbacks : ('a -> unit) list;  (* reverse registration order *)
}

let make ~id ~tenant = { id; tenant; status = Queued; callbacks = [] }

let id t = t.id

let tenant t = t.tenant

let status t = t.status

let is_done t = match t.status with Done _ -> true | Queued -> false

let resolve t outcome =
  if not (is_done t) then begin
    t.status <- Done outcome;
    let cbs = List.rev t.callbacks in
    t.callbacks <- [];
    List.iter (fun f -> f outcome) cbs
  end

let on_done t f =
  match t.status with
  | Done outcome -> f outcome
  | Queued -> t.callbacks <- f :: t.callbacks
