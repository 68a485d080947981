type t = {
  limit : int;
  snapshot : unit -> string;
  mutable last : int;
}

exception No_progress of { idle : int; limit : int; snapshot : string }

let create ?(limit = 1000) ~snapshot () = { limit; snapshot; last = 0 }

let touch t ~now = t.last <- now

let check t ~now =
  let idle = now - t.last in
  if idle > t.limit then raise (No_progress { idle; limit = t.limit; snapshot = t.snapshot () })
