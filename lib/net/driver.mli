(** Seeded multi-client loopback driver: the reference way to exercise
    {!Server} end to end, shared by the tests and the served driver of
    the differential harness ({!Cq_robust.Oracle.diff}).

    {!gen_workload} synthesises a deterministic workload — per-session
    continuous queries plus a global sequence of tuple batches — from a
    seed.  {!run_workload} then stands a server up on an ephemeral
    loopback port (in a forked child process when possible — see
    below), connects one client per session, registers the queries
    session-major, and streams the batches in {e lockstep}: each batch
    waits for its ack, and then for a flush barrier on every session,
    before the next batch is sent anywhere; a batch's [joins] register
    after its barrier.  Lockstep pins the server's ingest
    order to the workload order, which — with the server's
    read/flush/write tick discipline — makes every session's result
    stream deterministic and bit-comparable against a direct
    single-engine replay of the same workload. *)

type query_spec =
  | Band of { lo : float; hi : float }
  | Select of { a_lo : float; a_hi : float; c_lo : float; c_hi : float }

type batch_spec = {
  owner : int;  (** Session index that sends this batch. *)
  side : Frame.side;
  rows : (float * float) array;
  joins : (int * query_spec) list;
      (** [(session, query)] pairs registered, in order, once this
          batch's flush barrier has passed: queries that join a running
          stream. *)
}

type workload = {
  seed : int;
  sessions : int;
  queries : query_spec array array;  (** [queries.(i)] = session [i]'s queries. *)
  batches : batch_spec array;  (** Global send order. *)
}

val gen_workload :
  seed:int ->
  sessions:int ->
  queries_per_session:int ->
  batches:int ->
  rows_per_batch:int ->
  workload
(** Pure and deterministic in all arguments.  Attribute values are
    uniform in [\[0, 1000)]; query windows are 10–200 wide. *)

val batch_of_rows : (float * float) array -> Cq_relation.Batch.t

type outcome = {
  results : (int * (float * float * float * float) array) array array;
      (** [results.(i)] = session [i]'s [Results] frames in arrival
          order, each [(qid, rows)]. *)
  qids : int array array;
      (** [qids.(i).(k)] = qid assigned to session [i]'s [k]-th query:
          its leading queries, then the ones it joined after batches. *)
  latencies_ns : float array;  (** Per batch: send to ack, nanoseconds. *)
  overloads : (Frame.overload_source * int * float) list;
      (** Overload notices observed client-side. *)
  server : Server.stats;  (** Server counters at shutdown. *)
}

val run_workload :
  ?engine:Cq_engine.Engine.Config.t ->
  ?session_queue:int ->
  workload ->
  (outcome, Client.error) result
(** Run the whole workload as described above.  The flush barrier
    after each batch drains every session's queue, so a session drops
    only when one batch's RESULTS frames overflow [session_queue]
    (default 4096 frames).  A batch sends a session one frame per run
    of consecutive same-query result rows, split at 512 rows, so the
    bound is on the frames of one batch, not of the whole run: 20
    queries per session over 100 batches still overflow a 128-frame
    queue.  The differential check needs a run that never drops.

    The server runs in a {e forked child process}, not a domain: two
    busy domains in one process interact badly with the stop-the-world
    GC handshake when cores are scarce (a domain parked in [select]
    stalls the other's minor collections for the full select timeout),
    and a separate process is the honest deployment shape anyway.  The
    child ships its stats back over a pipe at shutdown.  [Unix.fork] refuses to run in a process that has ever
    created a domain, so callers that already spun up a parallel
    engine (the oracle's direct replay, bench experiments) silently
    fall back to serving from a spawned domain — slower on starved
    machines, behaviourally identical. *)

(** {2 Protocol fuzzing} *)

type fuzz_outcome = {
  fz_conns : int;  (** Hostile connections driven. *)
  fz_typed_errors : int;  (** Connections answered with a typed [Err] frame. *)
  fz_clean_eofs : int;  (** Connections the server just closed. *)
  fz_hangs : int;  (** Connections that timed out — must be 0. *)
  fz_server : Server.stats option;  (** [None] if the server child crashed. *)
}

val fuzz : ?conns:int -> seed:int -> unit -> fuzz_outcome
(** Stand up a private server and throw seeded garbage at it — random
    bytes, truncated frames, hostile length prefixes, unknown tags,
    valid prefixes that go bad — asserting every connection ends in a
    typed protocol error or a clean close, never a hang.  The server
    must still be answering well-formed traffic afterwards (checked
    with a final healthy client). *)
