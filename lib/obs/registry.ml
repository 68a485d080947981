(* Read-side metrics registry: every series is a probe closure over state
   its owner already keeps, evaluated only at snapshot time, so no hot
   path ever touches the registry. *)

module Json = Dfd_trace.Json

type hist = { h_count : int; h_sum : float; h_buckets : (float * int) list }

type value = Counter_v of int | Gauge_v of int | Float_v of float | Hist_v of hist

type sample = { name : string; help : string; stable : bool; value : value }

type probe_fn = P_int of [ `Counter | `Gauge ] * (unit -> int) | P_float of (unit -> float) | P_hist of (unit -> hist)

type entry = {
  e_help : string;
  e_stable : bool;
  mutable e_fn : probe_fn;
  mutable e_base : int;  (** last values of replaced counter closures *)
}

type t = { on : bool; lock : Mutex.t; entries : (string, entry) Hashtbl.t }

let disabled = { on = false; lock = Mutex.create (); entries = Hashtbl.create 1 }

let create () = { on = true; lock = Mutex.create (); entries = Hashtbl.create 64 }

let enabled t = t.on

(* --- name validation / label splitting --------------------------------- *)

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_base s =
  String.length s > 0
  && is_name_start s.[0]
  && (let ok = ref true in
      String.iter (fun c -> if not (is_name_char c) then ok := false) s;
      !ok)

(* "name{key=\"v\",...}" -> (base, Some "key=\"v\",...");  plain names pass
   through.  Raises [Invalid_argument] on anything the OpenMetrics
   renderer could not re-attach a [le] label to. *)
let split_labeled name =
  match String.index_opt name '{' with
  | None ->
    if not (valid_base name) then invalid_arg (Printf.sprintf "Registry: bad metric name %S" name);
    (name, None)
  | Some i ->
    let base = String.sub name 0 i in
    let n = String.length name in
    if (not (valid_base base)) || n < i + 3 || name.[n - 1] <> '}' then
      invalid_arg (Printf.sprintf "Registry: bad metric name %S" name);
    let labels = String.sub name (i + 1) (n - i - 2) in
    String.iter
      (fun c -> if c = '\n' || c = '{' || c = '}' then invalid_arg (Printf.sprintf "Registry: bad label set in %S" name))
      labels;
    (base, Some labels)

let labeled base labels =
  let escape v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
         match c with
         | '\\' -> Buffer.add_string buf "\\\\"
         | '"' -> Buffer.add_string buf "\\\""
         | '\n' -> Buffer.add_string buf "\\n"
         | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf
  in
  let name =
    match labels with
    | [] -> base
    | _ ->
      Printf.sprintf "%s{%s}" base
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) labels))
  in
  ignore (split_labeled name);
  name

let kind_name = function
  | P_int (`Counter, _) -> "counter"
  | P_int (`Gauge, _) -> "gauge"
  | P_float _ -> "float gauge"
  | P_hist _ -> "histogram"

(* Registration upserts: a respawned component re-probing the same name
   redirects the series at its fresh state.  A counter's replaced closure
   is read one last time into [e_base], so the series stays monotone
   across incarnations. *)
let put_probe t name ~help ~stable fn =
  if t.on then begin
    ignore (split_labeled name);
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.entries name with
        | None -> Hashtbl.replace t.entries name { e_help = help; e_stable = stable; e_fn = fn; e_base = 0 }
        | Some e ->
          if kind_name e.e_fn <> kind_name fn then
            invalid_arg
              (Printf.sprintf "Registry: %S already registered with a different kind (%s)" name
                 (kind_name e.e_fn));
          (match e.e_fn with
           | P_int (`Counter, f) -> e.e_base <- e.e_base + (try f () with _ -> 0)
           | _ -> ());
          e.e_fn <- fn)
  end

let probe t ?(help = "") ?(stable = false) ~kind name f = put_probe t name ~help ~stable (P_int (kind, f))

let probe_float t ?(help = "") ?(stable = false) name f = put_probe t name ~help ~stable (P_float f)

let probe_histogram t ?(help = "") ?(stable = false) name f = put_probe t name ~help ~stable (P_hist f)

let hist_of_stats h =
  let module SH = Dfd_structures.Stats.Histogram in
  { h_count = SH.count h; h_sum = SH.total h; h_buckets = SH.buckets h }

let sample_of name e =
  let value =
    try
      Some
        (match e.e_fn with
         | P_int (`Counter, f) -> Counter_v (e.e_base + f ())
         | P_int (`Gauge, f) -> Gauge_v (f ())
         | P_float f -> Float_v (f ())
         | P_hist f -> Hist_v (f ()))
    with _ -> None
  in
  Option.map (fun value -> { name; help = e.e_help; stable = e.e_stable; value }) value

let snapshot ?(stable_only = false) t =
  if not t.on then []
  else
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold
          (fun name e acc -> if stable_only && not e.e_stable then acc else match sample_of name e with Some s -> s :: acc | None -> acc)
          t.entries []
        |> List.sort (fun a b -> compare a.name b.name))

module Snapshot = struct
  let hist_json h =
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("buckets", Json.List (List.map (fun (ub, c) -> Json.List [ Json.Float ub; Json.Int c ]) h.h_buckets));
    ]

  let to_json samples =
    let one s =
      let typed =
        match s.value with
        | Counter_v n -> [ ("type", Json.String "counter"); ("value", Json.Int n) ]
        | Gauge_v n -> [ ("type", Json.String "gauge"); ("value", Json.Int n) ]
        | Float_v f -> [ ("type", Json.String "gauge"); ("value", Json.Float f) ]
        | Hist_v h -> ("type", Json.String "histogram") :: hist_json h
      in
      Json.Assoc (("name", Json.String s.name) :: typed)
    in
    Json.Assoc [ ("metrics", Json.List (List.map one samples)) ]

  let to_flat_json samples =
    Json.Assoc
      (List.filter_map
         (fun s ->
           match s.value with
           | Counter_v n | Gauge_v n -> Some (s.name, Json.Int n)
           | Float_v f -> Some (s.name, Json.Float f)
           | Hist_v _ -> None)
         samples)
end
