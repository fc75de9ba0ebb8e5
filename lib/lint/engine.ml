type report = {
  findings : Diagnostic.t list;
  waived : (Diagnostic.t * Waiver.t) list;
  unused_waivers : Waiver.t list;
  files : string list;
  errors : string list;
}

let clean r =
  List.is_empty r.findings && List.is_empty r.unused_waivers && List.is_empty r.errors

(* ------------------------------------------------------------------ *)
(* File discovery                                                       *)
(* ------------------------------------------------------------------ *)

let skip_dir = function
  | "_build" | ".git" | "_opam" | "node_modules" -> true
  | d -> String.length d > 0 && d.[0] = '.'

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.equal (String.sub s (ls - lf) lf) suf

(* Every .ml/.mli under root/lib and root/bin; sorted, relative paths. *)
let discover ~root =
  let acc = ref [] in
  let rec walk rel =
    let dir = Filename.concat root rel in
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun name ->
            let rel' = if String.equal rel "" then name else rel ^ "/" ^ name in
            let full = Filename.concat root rel' in
            if Sys.is_directory full then begin
              if not (skip_dir name) then walk rel'
            end
            else if has_suffix name ".ml" || has_suffix name ".mli" then
              acc := rel' :: !acc)
          entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun top ->
      let full = Filename.concat root top in
      if Sys.file_exists full && Sys.is_directory full then walk top)
    [ "lib"; "bin" ];
  List.sort String.compare !acc

(* ------------------------------------------------------------------ *)
(* Parsing (ppxlib's pinned AST; its parser tracks the compiler's)      *)
(* ------------------------------------------------------------------ *)

let lint_source ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  try
    if has_suffix path ".mli" then
      Ok (Rules.check_signature ~path (Ppxlib.Parse.interface lexbuf))
    else Ok (Rules.check_structure ~path (Ppxlib.Parse.implementation lexbuf))
  with exn -> Error (Printf.sprintf "%s: parse error: %s" path (Printexc.to_string exn))

let lint_path ~root ~path =
  match In_channel.with_open_bin (Filename.concat root path) In_channel.input_all with
  | source -> lint_source ~path source
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* CQL005: every lib implementation carries a signature                 *)
(* ------------------------------------------------------------------ *)

let mli_coverage files =
  List.filter_map
    (fun path ->
      if
        has_suffix path ".ml"
        && Rule.applies_to Rule.CQL005 ~path
        && not (List.exists (String.equal (path ^ "i")) files)
      then
        Some
          (Diagnostic.file_level ~rule:Rule.CQL005 ~path
             (Printf.sprintf "%s has no interface: add %si or waive with the \
                              reason the module must stay unabstracted"
                (Filename.basename path) (Filename.basename path)))
      else None)
    files

(* ------------------------------------------------------------------ *)
(* Waiver application                                                   *)
(* ------------------------------------------------------------------ *)

let apply_waivers waivers diags =
  let used = Array.make (List.length waivers) false in
  let findings = ref [] and waived = ref [] in
  List.iter
    (fun d ->
      let rec find i = function
        | [] -> findings := d :: !findings
        | w :: ws ->
            if Waiver.covers w d then begin
              used.(i) <- true;
              waived := (d, w) :: !waived
            end
            else find (i + 1) ws
      in
      find 0 waivers)
    diags;
  let unused = List.filteri (fun i _ -> not used.(i)) waivers in
  (List.rev !findings, List.rev !waived, unused)

let run ?waiver_file ~root () =
  let errors = ref [] in
  let waiver_file =
    match waiver_file with Some f -> Some f | None ->
      let f = Filename.concat root ".cqlint" in
      if Sys.file_exists f then Some f else None
  in
  let waivers =
    match waiver_file with
    | None -> []
    | Some f -> (
        match Waiver.load f with
        | Ok ws -> ws
        | Error es ->
            errors := List.map Waiver.error_to_string es @ !errors;
            [])
  in
  let files = discover ~root in
  let diags =
    List.concat_map
      (fun path ->
        match lint_path ~root ~path with
        | Ok ds -> ds
        | Error msg ->
            errors := msg :: !errors;
            [])
      files
  in
  let diags = diags @ mli_coverage files in
  let diags = List.sort Diagnostic.compare diags in
  let findings, waived, unused_waivers = apply_waivers waivers diags in
  { findings; waived; unused_waivers; files; errors = List.rev !errors }

(* ------------------------------------------------------------------ *)
(* Hot-path manifest (out/hot_path.list)                                *)
(* ------------------------------------------------------------------ *)

(* One "path:name" line per [@cq.hot] binding, sorted.  Line numbers
   are deliberately omitted so unrelated edits do not churn the
   committed manifest; CI diffs the committed copy against a fresh one
   and fails if any annotation disappeared. *)
let hot_manifest ~root =
  let files = discover ~root in
  let lines = ref [] in
  List.iter
    (fun path ->
      if has_suffix path ".ml" then
        match In_channel.with_open_bin (Filename.concat root path) In_channel.input_all with
        | source -> (
            let lexbuf = Lexing.from_string source in
            Lexing.set_filename lexbuf path;
            match Ppxlib.Parse.implementation lexbuf with
            | st ->
                List.iter
                  (fun (name, _line) -> lines := Printf.sprintf "%s:%s" path name :: !lines)
                  (Rules.hot_bindings st)
            | exception exn ->
                (* Unparseable files already fail [run]; the manifest
                   stays total and just skips them. *)
                ignore (Printexc.to_string exn))
        | exception Sys_error _ -> ())
    files;
  List.sort_uniq String.compare !lines
