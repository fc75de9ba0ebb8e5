(** Session-oriented network front-end over {!Cq_engine.Parallel}: a
    single-threaded, non-blocking [Unix.select] event loop serving the
    {!Frame} protocol on a TCP socket (DESIGN.md §14).

    One tick of the loop ([step]) runs in a fixed order — accept, read
    and handle client frames, flush the engine (which fans results out
    to the per-session bounded queues), then write — so a batch's
    [Batch_ok] ack only reaches the wire {e after} the flush that
    processed it.  Under the lockstep driving discipline of
    {!Driver.run_workload} that makes the whole multi-session execution
    deterministic and differentially checkable against a direct
    single-engine run (the [Served] driver of {!Cq_robust.Oracle.diff}).

    Backpressure is end to end: each session's outbound buffers are
    bounded ({!Session}), a session with a full result queue stops
    being read (so the kernel socket buffer pushes back), engine
    admission refusals surface as typed [Overload] frames, and result
    rows that would exceed the bounded queue are dropped and accounted
    in one coalesced [Overload] notice — memory per slow reader is
    O(session_queue), never unbounded. *)

type t

type config = {
  engine : Cq_engine.Engine.Config.t;  (** Engine the server fronts. *)
  max_sessions : int;
      (** Accept cap; beyond it new connections get [Err_server_full].
          At most 1000: [Unix.select] cannot watch fds past FD_SETSIZE
          (1024), so {!try_create} refuses configs whose sessions could
          push a watched fd over it. *)
  session_queue : int;
      (** Bounded result-queue capacity per session, in frames not yet
          wholly written. *)
  max_frame : int;  (** Per-session decoder body cap, bytes. *)
}

val default_config : config
(** [Engine.Config.default] engine, 1000 sessions (the FD_SETSIZE
    budget), 64-frame queues, {!Frame.default_max_frame} frames. *)

val try_create :
  ?config:config -> addr:Unix.sockaddr -> unit -> (t, Cq_util.Error.t) result
(** Bind and listen (non-blocking, [SO_REUSEADDR]); port 0 picks an
    ephemeral port, see {!port}.  Fails with [Invalid_parameter] on a
    bad config or unbindable address.  Also ignores [SIGPIPE]
    process-wide (once): a peer that vanishes mid-write must surface
    as [EPIPE] on that one socket, closing just that session, not kill
    the whole server. *)

val create : ?config:config -> addr:Unix.sockaddr -> unit -> t
(** {!try_create}, raising {!Cq_util.Error.Cq_error} on failure. *)

val port : t -> int
(** The bound TCP port (resolves port-0 binds). *)

val active_sessions : t -> int

val step : t -> timeout:float -> int
(** Run one event-loop tick, waiting at most [timeout] seconds for
    readiness.  Returns the number of client frames handled.  Exposed
    for tests; {!serve} is the production loop. *)

val serve : t -> unit
(** Loop {!step} until {!stop} is called (from any domain), then tear
    down: close every session, close the listener, shut the engine
    down.  Runs in the calling domain. *)

val debug_dump : t -> string
(** One line of queue/flag state per session — a diagnostic aid for
    tests and for poking a live server from a debugger.  The format is
    human-oriented and not stable. *)

val stop : t -> unit
(** Ask a running {!serve} to exit.  Safe to call from another domain
    (self-pipe); idempotent. *)

val teardown : t -> unit
(** Release everything without going through {!serve} — for tests that
    drive {!step} directly.  Idempotent. *)

type stats = {
  net_accepts : int;
  net_active : int;
  net_results_delivered : int;  (** Result rows enqueued to sessions. *)
  net_results_dropped : int;  (** Result rows dropped at full session queues. *)
  net_overloads : int;  (** OVERLOAD frames sent (both sources). *)
  net_proto_errors : int;
  net_flushes : int;
  net_writes : int;  (** Socket write calls that moved bytes, all sessions. *)
  net_frames_out : int;  (** Frames queued for the wire, all sessions. *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
