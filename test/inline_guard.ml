(* Structural guard on two hot paths, checked in this executable's own
   machine code.  Closure-mode ocamlopt drops an [@inline] it cannot
   honour (say, a body holding a local closure that escapes) without a
   warning, so the attribute alone proves nothing; the machine code does.
   Structure only, never timing.
   - The pool's fork path: [Pool.fork_join] calls no function that
     lib/runtime/pool.ml marks [let[@inline]].
   - psort's [Int.compare] core: each [_int] kernel instance in
     lib/runtime/psort.ml calls no psort function and makes no call
     through a closure ([caml_applyN] or an indirect call), so it compares
     inline.

   Usage: inline_guard.exe POOL_ML PSORT_ML
   Reads the marked and instance names from the sources, then
   disassembles this executable, which links both modules, with
   [objdump -d]. *)

(* Keeps the pool and psort linked into this executable. *)
let _ = (Dfd_runtime.Pool.fork_join, Dfd_runtime.Psort.sort)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("inline_guard: " ^ s); exit 1) fmt

let lines_of ic = In_channel.input_all ic |> String.split_on_char '\n'

(* The names that [re]'s first group matches at the start of a line of [ml]. *)
let defined re ml =
  let re = Str.regexp re in
  In_channel.with_open_text ml lines_of
  |> List.filter_map (fun l -> if Str.string_match re l 0 then Some (Str.matched_group 1 l) else None)

(* A call or jump operand naming a function of [modname] (ocamlopt
   suffixes a stamp; a jump inside a function carries an offset, [+0x..],
   and does not match). *)
let target modname = Str.regexp (Printf.sprintf {|<camlDfd_runtime__%s\.\([a-z_0-9']+\)_[0-9]+>|} modname)

(* The lines after a function's header line in [objdump -d] output, up to
   the blank line that ends it; [None] if the function is missing. *)
let body modname name disasm =
  let head = Str.regexp (Printf.sprintf {|.*<camlDfd_runtime__%s\.%s_[0-9]+>:$|} modname name) in
  let rec upto_blank = function
    | [] -> []
    | l :: _ when String.trim l = "" -> []
    | l :: rest -> l :: upto_blank rest
  in
  let rec find = function
    | [] -> None
    | l :: rest -> if Str.string_match head l 0 then Some (upto_blank rest) else find rest
  in
  find disasm

let calls_target re pred l =
  match Str.search_forward re l 0 with
  | _ -> pred (Str.matched_group 1 l)
  | exception Not_found -> false

let check_fork_join disasm pool_ml =
  let names = defined {|^let\[@inline\] \([a-z_0-9']+\)|} pool_ml in
  if names = [] then fail "no let[@inline] function in %s" pool_ml;
  match body "Pool" "fork_join" disasm with
  | None -> fail "no camlDfd_runtime__Pool.fork_join_* in the disassembly"
  | Some lines ->
    (match List.filter (calls_target (target "Pool") (fun n -> List.mem n names)) lines with
     | [] -> ()
     | bad -> fail "fork_join calls an [@inline] helper:\n%s" (String.concat "\n" bad));
    Printf.printf "fork_join (%d lines) calls none of: %s\n" (List.length lines) (String.concat " " names)

(* An indirect call or jump: [call *%rax], [jmp *0x8(%rbx)]. *)
let indirect = Str.regexp {|.*\(call\|jmp\)[ \t]+\*|}

let closure_call = Str.regexp {|.*<caml_apply[0-9]+>|}

let check_psort disasm psort_ml =
  let instances = defined {|^let \([a-z_0-9']+_int\) |} psort_ml in
  if instances = [] then fail "no _int instance in %s" psort_ml;
  let bad_line l =
    Str.string_match indirect l 0 || Str.string_match closure_call l 0
    || calls_target (target "Psort") (fun _ -> true) l
  in
  List.iter
    (fun name ->
       match body "Psort" name disasm with
       | None -> fail "no camlDfd_runtime__Psort.%s_* in the disassembly" name
       | Some lines ->
         (match List.filter bad_line lines with
          | [] -> ()
          | bad -> fail "Psort.%s makes a call per element:\n%s" name (String.concat "\n" bad));
         Printf.printf "Psort.%s (%d lines) calls no psort function and no closure\n" name
           (List.length lines))
    instances

let () =
  match Sys.argv with
  | [| _; pool_ml; psort_ml |] ->
    let cmd = "objdump -d --no-show-raw-insn " ^ Filename.quote Sys.executable_name in
    let ic = Unix.open_process_in cmd in
    let disasm = lines_of ic in
    if Unix.close_process_in ic <> Unix.WEXITED 0 then fail "%s failed" cmd;
    check_fork_join disasm pool_ml;
    check_psort disasm psort_ml
  | _ -> fail "usage: inline_guard.exe POOL_ML PSORT_ML"
