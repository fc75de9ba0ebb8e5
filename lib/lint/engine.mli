(** Orchestration: discover sources, parse, run rules, apply waivers. *)

type report = {
  findings : Diagnostic.t list;  (** unwaived — these fail the build *)
  waived : (Diagnostic.t * Waiver.t) list;
  unused_waivers : Waiver.t list;
      (** stale allowlist entries — also fatal, so [.cqlint] never rots *)
  files : string list;  (** every file scanned, workspace-relative *)
  errors : string list;  (** I/O, parse and waiver-file errors *)
}

val clean : report -> bool
(** No findings, no unused waivers, no errors. *)

val lint_source : path:string -> string -> (Diagnostic.t list, string) result
(** Parse and check an in-memory source (the fixture-test entry point);
    [path] decides which rules apply.  CQL005 is not checked here. *)

val run : ?waiver_file:string -> root:string -> unit -> report
(** Full run over every [.ml]/[.mli] under [root/lib] and [root/bin]
    (skipping [_build], [.git] and hidden directories).  [waiver_file]
    defaults to [root/.cqlint] when that file exists; a missing default
    is simply "no waivers". *)

val hot_manifest : root:string -> string list
(** Sorted ["path:name"] lines, one per [\[@cq.hot\]] binding under
    [root].  Line numbers are omitted so unrelated edits do not churn
    the committed manifest ([out/hot_path.list]); CI regenerates it and
    fails if any committed entry disappeared. *)
