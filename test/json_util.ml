(* Shared helpers for the JSON-consuming test validators
   (validate_trace / validate_soak / validate_metrics) — one copy of the
   file slurping, the exit-with-message failure, and the numeric
   coercion the in-tree JSON type doesn't provide.  Unit-tested directly
   by test_json_util. *)

module Json = Dfd_trace.Json

(* [failf ~prog fmt] prints "prog: message" on stderr and exits 1.
   Validators bind it eta-expanded ([let fail fmt = failf ~prog:".." fmt])
   so each use site keeps full format polymorphism. *)
let failf ~prog fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (prog ^ ": " ^ m);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

(* Reports emit counters as Int but derived quantities as Float; any
   numeric field must accept both. *)
let to_number_exn = function
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> raise (Json.Parse_error "expected number")

let parse_file path = Json.of_string (read_file path)
