(* Structural guard on the pool's fork path: fails if the compiled code of
   [Pool.fork_join] calls any function that lib/runtime/pool.ml marks
   [let[@inline]].  Closure-mode ocamlopt drops an [@inline] it cannot
   honour (say, a body holding a local closure that escapes) without a
   warning, so the attribute alone proves nothing; the machine code does.
   Structure only, never timing.

   Usage: inline_guard.exe POOL_ML
   Reads the marked names from POOL_ML, then disassembles this executable,
   which links the pool, with [objdump -d]. *)

(* Keeps the pool linked into this executable. *)
let _ = Dfd_runtime.Pool.fork_join

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("inline_guard: " ^ s); exit 1) fmt

let lines_of ic = In_channel.input_all ic |> String.split_on_char '\n'

let marked pool_ml =
  let re = Str.regexp {|^let\[@inline\] \([a-z_0-9']+\)|} in
  In_channel.with_open_text pool_ml lines_of
  |> List.filter_map (fun l -> if Str.string_match re l 0 then Some (Str.matched_group 1 l) else None)

(* A function's header line in [objdump -d] output, and a call or jump
   operand naming a pool function (ocamlopt suffixes a stamp; a jump
   inside a function carries an offset, [+0x..], and does not match). *)
let fork_join_head = Str.regexp {|.*<camlDfd_runtime__Pool\.fork_join_[0-9]+>:$|}

let pool_target = Str.regexp {|<camlDfd_runtime__Pool\.\([a-z_0-9']+\)_[0-9]+>|}

(* The lines after [fork_join]'s header, up to the blank line that ends it. *)
let rec body = function
  | [] -> []
  | l :: _ when String.trim l = "" -> []
  | l :: rest -> l :: body rest

let rec fork_join_body = function
  | [] -> None
  | l :: rest -> if Str.string_match fork_join_head l 0 then Some (body rest) else fork_join_body rest

let () =
  if Array.length Sys.argv <> 2 then fail "usage: inline_guard.exe POOL_ML";
  let names = marked Sys.argv.(1) in
  if names = [] then fail "no let[@inline] function in %s" Sys.argv.(1);
  let cmd = "objdump -d --no-show-raw-insn " ^ Filename.quote Sys.executable_name in
  let ic = Unix.open_process_in cmd in
  let disasm = lines_of ic in
  if Unix.close_process_in ic <> Unix.WEXITED 0 then fail "%s failed" cmd;
  match fork_join_body disasm with
  | None -> fail "no camlDfd_runtime__Pool.fork_join_* in the disassembly"
  | Some lines ->
    let calls l =
      match Str.search_forward pool_target l 0 with
      | _ -> List.mem (Str.matched_group 1 l) names
      | exception Not_found -> false
    in
    (match List.filter calls lines with
     | [] -> ()
     | bad -> fail "fork_join calls an [@inline] helper:\n%s" (String.concat "\n" bad));
    Printf.printf "fork_join (%d lines) calls none of: %s\n" (List.length lines) (String.concat " " names)
