type t =
  | Nil
  | Act of Action.t * t
  | Fork of (unit -> t) * t
  | Join of t

type frag = t -> t

let finish f = f Nil

let ( >> ) f g k = f (g k)

let nothing k = k

let act a k = Act (a, k)

let work n k = if n <= 0 then k else Act (Action.Work n, k)

let touch addrs k = Act (Action.Touch addrs, k)

let alloc n k = if n <= 0 then k else Act (Action.Alloc n, k)

let free n k = if n <= 0 then k else Act (Action.Free n, k)

let lock m k = Act (Action.Lock m, k)

let unlock m k = Act (Action.Unlock m, k)

let critical m body = lock m >> body >> unlock m

let wait ~cv ~mutex k = Act (Action.Wait (cv, mutex), k)

let signal cv k = Act (Action.Signal cv, k)

let broadcast cv k = Act (Action.Broadcast cv, k)

let seq fs k = List.fold_right (fun f acc -> f acc) fs k

let par child parent k = Fork ((fun () -> finish child), parent (Join k))

(* Balanced binary fork tree: the left half becomes the forked child thread,
   the right half continues in the current thread.  This matches how the
   paper's benchmarks express parallel loops as binary fork trees. *)
let rec par_list fs =
  match fs with
  | [] -> nothing
  | [ f ] -> f
  | _ ->
    let n = List.length fs in
    let rec split i acc = function
      | [] -> (List.rev acc, [])
      | x :: tl when i > 0 -> split (i - 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let left, right = split (n / 2) [] fs in
    par (par_list left) (par_list right)

let par_iter ~lo ~hi f =
  (* Build the binary tree by index range rather than materialising a list,
     so the child halves stay lazy. *)
  let rec range l h =
    if h - l <= 0 then nothing
    else if h - l = 1 then f l
    else begin
      let mid = l + ((h - l) / 2) in
      fun k -> Fork ((fun () -> finish (range l mid)), range mid h (Join k))
    end
  in
  range lo hi

let repeat n f =
  let rec go i = if i >= n then nothing else f >> go (i + 1) in
  go 0

let rec size = function
  | Nil -> 1
  | Act (_, k) -> 1 + size k
  | Fork (_, k) -> 1 + size k
  | Join k -> 1 + size k
