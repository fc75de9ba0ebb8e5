(** Row/table printing and timing helpers shared by every experiment in
    the benchmark harness. *)

val section : string -> string -> unit
(** [section id title] prints an experiment header. *)

val note : ('a, Format.formatter, unit) format -> 'a
(** Free-form annotation under the current section. *)

val table : header:string list -> rows:string list list -> unit
(** Aligned plain-text table. *)

val throughput :
  events:'a array -> warmup:int -> ('a -> unit) -> float
(** Run the warmup prefix unmeasured, then time the rest; events/sec.
    @raise Invalid_argument if there are no measured events. *)

val time_per_op : n:int -> (int -> unit) -> float
(** Average time per call on the monotonic clock, in nanoseconds. *)

val fmt_throughput : float -> string
val fmt_ns : float -> string
val fmt_f : float -> string

(** {2 Machine-readable capture}

    Between {!json_begin} and {!json_end}, every {!section} opens a
    record, and {!note}/{!table}/{!throughput}/{!time_per_op} feed it;
    each record is flushed to [DIR/BENCH_<id>.json] when the next
    section starts (or at {!json_end}).  The JSON carries the
    experiment id, title, recorded params, notes, raw metrics
    ([events_per_sec] from {!throughput}, [ns_per_op] from
    {!time_per_op}), every printed table and, when {!Cq_obs.Metrics}
    is enabled, an [obs] block — the registry snapshot taken at flush
    time (reset at each section start, so the block is a
    per-experiment delta).  With metrics disabled there is no [obs]
    key. *)

val json_begin : dir:string -> unit
(** Start recording; creates [dir] if missing. *)

val json_end : unit -> unit
(** Flush the last open record and stop recording. *)

val json_param : string -> string -> unit
(** Attach a key/value parameter to the current record (no-op when
    recording is off or no section is open). *)

val record_metric : string -> float -> string -> unit
(** [record_metric name value unit] appends a raw metric to the current
    record — the hook experiments use for measurements that don't come
    from {!throughput}/{!time_per_op} (e.g. allocs per op, p99 latency).
    No-op when recording is off or no section is open. *)
