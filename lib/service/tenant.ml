type t = { name : string; weight : int; queue_bound : int }

let make ?(weight = 1) ?(queue_bound = 64) name = { name; weight; queue_bound }

let default = make "default"

let validate t =
  if t.name = "" then invalid_arg "Tenant: name must be non-empty";
  if t.weight < 1 then invalid_arg (Printf.sprintf "Tenant %s: weight must be >= 1" t.name);
  if t.queue_bound < 1 then
    invalid_arg (Printf.sprintf "Tenant %s: queue_bound must be >= 1" t.name)

let validate_all ts =
  if ts = [] then invalid_arg "Tenant: at least one tenant required";
  List.iter validate ts;
  let names = List.map (fun t -> t.name) ts in
  let sorted = List.sort_uniq compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Tenant: duplicate tenant names"
