(* Schema checker for the `repro metrics` artifacts: the OpenMetrics v1
   text exposition and the JSON registry snapshot of the same run, and
   optionally its flight-recorder dump.  Structural and
   cross-consistency checks only — never timing — so CI can gate on it
   from any hardware.  Byte-determinism across runs is checked
   separately with cmp.  Usage: validate_metrics TEXT JSON [FLIGHT] *)

module Json = Dfd_trace.Json

let fail fmt = Json_util.failf ~prog:"validate_metrics" fmt

(* strip "_bucket"/"_count"/"_sum" to find the family a point belongs to *)
let base_family points name =
  let strip suffix n =
    let ls = String.length suffix and ln = String.length n in
    if ln > ls && String.sub n (ln - ls) ls = suffix then Some (String.sub n 0 (ln - ls))
    else None
  in
  match List.find_map (fun s -> strip s name) [ "_bucket"; "_count"; "_sum" ] with
  | Some base when List.exists (fun (f : Om_util.family) -> f.f_name = base) points -> base
  | _ -> name

let () =
  let text_path, json_path, flight_path =
    match Sys.argv with
    | [| _; t; j |] -> (t, j, None)
    | [| _; t; j; f |] -> (t, j, Some f)
    | _ -> fail "usage: validate_metrics TEXT JSON [FLIGHT]"
  in
  let om =
    try Om_util.parse (Json_util.read_file text_path) with Failure m -> fail "%s: %s" text_path m
  in
  (* every sample line must belong to a declared family *)
  List.iter
    (fun (p : Om_util.point) ->
      let fam = base_family om.Om_util.families p.Om_util.p_name in
      if not (List.exists (fun (f : Om_util.family) -> f.f_name = fam) om.Om_util.families) then
        fail "%s: sample %s has no # TYPE declaration" text_path p.Om_util.p_name)
    om.Om_util.points;
  (* the instruments the telemetry plane promises (a histogram is present
     when any of its _bucket/_count/_sum points is) *)
  List.iter
    (fun name ->
      if
        not
          (List.exists
             (fun (p : Om_util.point) -> base_family om.Om_util.families p.Om_util.p_name = name)
             om.Om_util.points)
      then fail "%s: missing required series %s" text_path name)
    [
      "dfd_engine_time";
      "dfd_engine_actions_total";
      "dfd_engine_premature_depth";
      "dfd_space_budget_bytes";
      "dfd_space_peak_bytes";
      "dfd_space_headroom_ratio";
    ];
  (* histogram integrity: cumulative buckets non-decreasing, ascending
     bounds, +Inf bucket equal to _count *)
  List.iter
    (fun (f : Om_util.family) ->
      if f.Om_util.f_type = Om_util.Histogram then begin
        let bs = Om_util.buckets om f.Om_util.f_name in
        if bs = [] then fail "%s: histogram %s has no buckets" text_path f.Om_util.f_name;
        let rec check prev_le prev_c = function
          | [] -> ()
          | (le, c) :: rest ->
            if le <= prev_le then fail "%s: %s bucket bounds not ascending" text_path f.Om_util.f_name;
            if c < prev_c then fail "%s: %s cumulative counts decrease" text_path f.Om_util.f_name;
            check le c rest
        in
        check neg_infinity 0 bs;
        let inf_count =
          match List.rev bs with
          | (le, c) :: _ when le = infinity -> c
          | _ -> fail "%s: %s missing +Inf bucket" text_path f.Om_util.f_name
        in
        (match Om_util.value om (f.Om_util.f_name ^ "_count") with
         | Some c when int_of_float c = inf_count -> ()
         | Some c ->
           fail "%s: %s_count %d <> +Inf bucket %d" text_path f.Om_util.f_name (int_of_float c)
             inf_count
         | None -> fail "%s: %s missing _count" text_path f.Om_util.f_name);
        if Om_util.value om (f.Om_util.f_name ^ "_sum") = None then
          fail "%s: %s missing _sum" text_path f.Om_util.f_name
      end)
    om.Om_util.families;
  (* counters may never be negative *)
  List.iter
    (fun (p : Om_util.point) ->
      let fam = base_family om.Om_util.families p.Om_util.p_name in
      match List.find_opt (fun (f : Om_util.family) -> f.f_name = fam) om.Om_util.families with
      | Some { Om_util.f_type = Om_util.Counter; _ } when p.Om_util.p_value < 0.0 ->
        fail "%s: counter %s is negative" text_path p.Om_util.p_name
      | _ -> ())
    om.Om_util.points;
  (* the JSON snapshot must agree with the text exposition *)
  let j =
    try Json_util.parse_file json_path with Json.Parse_error m -> fail "%s: bad JSON: %s" json_path m
  in
  let metrics =
    try Json.to_list_exn (Json.member "metrics" j)
    with _ -> fail "%s: missing metrics list" json_path
  in
  if metrics = [] then fail "%s: empty metrics list" json_path;
  let checked = ref 0 in
  List.iteri
    (fun i m ->
      let name =
        try Json.to_string_exn (Json.member "name" m)
        with _ -> fail "%s: metrics[%d]: missing name" json_path i
      in
      let typ =
        try Json.to_string_exn (Json.member "type" m)
        with _ -> fail "%s: metrics[%d]: missing type" json_path i
      in
      if not (List.mem typ [ "counter"; "gauge"; "histogram" ]) then
        fail "%s: metrics[%d]: unknown type %S" json_path i typ;
      let base, labels =
        match String.index_opt name '{' with
        | None -> (name, [])
        | Some b ->
          ( String.sub name 0 b,
            Om_util.parse_labels 0 (String.sub name (b + 1) (String.length name - b - 2)) )
      in
      match typ with
      | "histogram" ->
        let count =
          try Json.to_int_exn (Json.member "count" m)
          with _ -> fail "%s: %s: histogram without count" json_path name
        in
        (match Om_util.value ~labels om (base ^ "_count") with
         | Some c when int_of_float c = count -> incr checked
         | Some c ->
           fail "%s: %s count %d disagrees with text %d" json_path name count (int_of_float c)
         | None -> fail "text exposition lacks histogram %s" base)
      | _ -> (
          match Json.member "value" m with
          | Json.Int n -> (
              match Om_util.value ~labels om base with
              | Some v when int_of_float v = n -> incr checked
              | Some v -> fail "%s: %s = %d disagrees with text %g" json_path name n v
              | None -> fail "text exposition lacks series %s" name)
          | Json.Float f -> (
              match Om_util.value ~labels om base with
              | Some v when Float.abs (v -. f) <= 1e-9 *. Float.max 1.0 (Float.abs f) ->
                incr checked
              | Some v -> fail "%s: %s = %g disagrees with text %g" json_path name f v
              | None -> fail "text exposition lacks series %s" name)
          | _ -> fail "%s: %s: missing numeric value" json_path name))
    metrics;
  Printf.printf "validate_metrics: %s / %s ok (%d families, %d points, %d cross-checked)\n"
    text_path json_path
    (List.length om.Om_util.families)
    (List.length om.Om_util.points) !checked;
  (* the flight dump: every key present, every event decodable, and —
     the simulator being single-threaded — exactly the retained events *)
  Option.iter
    (fun path ->
      let fl =
        try Json.member "flight" (Json_util.parse_file path)
        with _ -> fail "%s: no flight object" path
      in
      let int k =
        try Json.to_int_exn (Json.member k fl) with _ -> fail "%s: flight.%s not an int" path k
      in
      (try ignore (Json.to_string_exn (Json.member "reason" fl))
       with _ -> fail "%s: flight.reason not a string" path);
      let lanes = int "lanes" and capacity = int "capacity" in
      let recorded = int "recorded" and dropped = int "dropped" in
      let events =
        try Json.to_list_exn (Json.member "events" fl)
        with _ -> fail "%s: flight.events not a list" path
      in
      if lanes <= 0 || capacity <= 0 then fail "%s: flight lanes/capacity not positive" path;
      if List.length events <> recorded - dropped then
        fail "%s: %d events, but recorded - dropped = %d" path (List.length events)
          (recorded - dropped);
      List.iteri
        (fun i e ->
          try ignore (Dfd_trace.Event.of_json e)
          with _ -> fail "%s: flight.events[%d] does not decode" path i)
        events;
      Printf.printf "validate_metrics: %s ok (%d lanes x %d, %d events)\n" path lanes capacity
        (List.length events))
    flight_path
