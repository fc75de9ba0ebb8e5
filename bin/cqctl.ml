(* cqctl — command-line front end for the hotspot continuous-query
   system: run reproduction experiments, inspect workloads, query the
   Zipf coverage model. *)

open Cmdliner

(* Reject bad shard counts at parse time: the library's plain
   constructors raise Cq_error on shards < 1, which cmdliner would
   report as an "internal error" rather than a usage error. *)
let shard_count =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "shard count must be >= 1, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let scale_term =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Use the paper's full sizes (slower).")
  in
  let shards =
    Arg.(
      value
      & opt (some (list shard_count)) None
      & info [ "shards" ] ~docv:"N,.."
          ~doc:
            "Override the shard counts swept by $(b,scale-domains) (comma-separated, e.g. \
             $(b,--shards 1,2)).")
  in
  Term.(
    const (fun f shards ->
        let s = if f then Cq_bench.Setup.full else Cq_bench.Setup.quick in
        match shards with None -> s | Some sh -> { s with Cq_bench.Setup.shards = sh })
    $ full $ shards)

(* --------------------------- observability ----------------------------- *)

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the observability registry (and trace ring) for the run and dump a \
           metrics snapshot when done.")

(* Wrap a command body: flip the global switches on first, dump the
   registry after.  With the flag off this is a plain call — the
   instrumentation in the libraries stays disabled (its default). *)
let with_metrics enabled f =
  if enabled then begin
    Cq_obs.Metrics.set_enabled true;
    Cq_obs.Trace.set_enabled true
  end;
  let r = f () in
  if enabled then Format.printf "@.-- metrics ---------------------------------------------------@.%a" Cq_obs.Metrics.pp ();
  r

(* Shared demo workload for $(b,stats) and $(b,trace): a band-join
   engine under a clustered query population hot enough that the
   trackers promote (and, after the unsubscribe wave, demote) groups. *)
let run_demo ~queries ~events ~alpha ~seed ~strategy =
  let module E = Cq_engine.Engine in
  let rng = Cq_util.Rng.create seed in
  let eng = E.create ~alpha ~seed ~strategy () in
  let ranges =
    Cq_relation.Workload.gen_clustered_ranges ~scattered_len:(10.0, 4.0) rng ~n:queries
      ~n_clusters:8 ~clustered_frac:0.9 ~domain:(-500.0, 500.0) ~cluster_halfwidth:15.0
      ~len_mu:40.0 ~len_sigma:10.0
  in
  let subs =
    Array.map (fun range -> E.subscribe_band eng ~range (fun _ _ -> ())) ranges
  in
  let r_tuples = ref [] in
  for _ = 1 to events do
    let b = 1000.0 *. Cq_util.Rng.float rng in
    if Cq_util.Rng.bool rng then begin
      let r, _ = E.insert_r eng ~a:(100.0 *. Cq_util.Rng.float rng) ~b in
      r_tuples := r :: !r_tuples
    end
    else ignore (E.insert_s eng ~b ~c:(100.0 *. Cq_util.Rng.float rng))
  done;
  (* A deletion and unsubscribe wave: exercises the retract path and
     drives hotspot groups below the demotion threshold. *)
  List.iteri (fun i r -> if i mod 4 = 0 then ignore (E.delete_r eng r)) !r_tuples;
  Array.iteri (fun i sub -> if i mod 2 = 0 then ignore (E.unsubscribe eng sub)) subs;
  eng

(* ------------------------------ bench --------------------------------- *)

let bench_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (see $(b,list)); default: all.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"DIR"
          ~doc:"Also write one machine-readable BENCH_<id>.json per experiment into $(docv).")
  in
  let run scale json metrics ids =
    with_metrics metrics @@ fun () ->
    (match json with Some dir -> Cq_bench.Report.json_begin ~dir | None -> ());
    let finish outcome =
      if Option.is_some json then Cq_bench.Report.json_end ();
      outcome
    in
    match ids with
    | [] ->
        Cq_bench.Registry.run_all scale;
        Cq_bench.Micro.run ();
        finish (`Ok ())
    | ids ->
        let rec go = function
          | [] -> `Ok ()
          | "micro" :: rest ->
              Cq_bench.Micro.run ();
              go rest
          | id :: rest -> (
              match Cq_bench.Registry.find id with
              | Some e ->
                  e.run scale;
                  go rest
              | None -> `Error (false, Printf.sprintf "unknown experiment %S (try: cqctl list)" id))
        in
        finish (go ids)
  in
  let info = Cmd.info "bench" ~doc:"Run reproduction experiments (tables/figures/ablations)." in
  Cmd.v info Term.(ret (const run $ scale_term $ json $ metrics_term $ ids))

let list_cmd =
  let run () =
    List.iter print_endline (Cq_bench.Registry.ids ());
    print_endline "micro"
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids.") Term.(const run $ const ())

(* ------------------------------ zipf ---------------------------------- *)

let zipf_cmd =
  let groups =
    Arg.(value & opt int 5000 & info [ "groups" ] ~docv:"N" ~doc:"Number of stabbing groups.")
  in
  let beta = Arg.(value & opt float 1.0 & info [ "beta" ] ~doc:"Zipf exponent.") in
  let target =
    Arg.(value & opt float 0.7 & info [ "target" ] ~doc:"Coverage target in [0,1].")
  in
  let run groups beta target =
    let k = Cq_engine.Zipf_model.groups_needed ~n_groups:groups ~beta ~target in
    Printf.printf
      "with %d groups and beta = %g, the top %d groups (%.1f%% of groups) cover %.1f%% of queries\n"
      groups beta k
      (100.0 *. float_of_int k /. float_of_int groups)
      (100.0 *. Cq_engine.Zipf_model.coverage ~n_groups:groups ~beta ~top_k:k)
  in
  Cmd.v
    (Cmd.info "zipf" ~doc:"Figure 2's hotspot-coverage model: groups needed for a coverage target.")
    Term.(const run $ groups $ beta $ target)

(* ----------------------------- workload -------------------------------- *)

let workload_cmd =
  let n = Arg.(value & opt int 20_000 & info [ "n" ] ~doc:"Number of query ranges.") in
  let clusters = Arg.(value & opt int 40 & info [ "clusters" ] ~doc:"Cluster count.") in
  let frac =
    Arg.(value & opt float 0.8 & info [ "frac" ] ~doc:"Fraction of clustered ranges.")
  in
  let alpha = Arg.(value & opt float 0.005 & info [ "alpha" ] ~doc:"Hotspot threshold.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let run n n_clusters frac alpha seed =
    let rng = Cq_util.Rng.create seed in
    let ranges =
      Cq_relation.Workload.gen_clustered_ranges ~scattered_len:(10.0, 4.0) rng ~n ~n_clusters
        ~clustered_frac:frac ~domain:(0.0, 10_000.0) ~cluster_halfwidth:60.0 ~len_mu:300.0
        ~len_sigma:100.0
    in
    let queries = Cq_joins.Band_query.of_ranges ranges in
    let tau = Hotspot_core.Stabbing.tau Cq_joins.Band_query.Elem.interval queries in
    let module T = Hotspot_core.Hotspot_tracker.Make (Cq_joins.Band_query.Elem) in
    let tr = T.create ~alpha () in
    let _, dt = Cq_util.Clock.time (fun () -> Array.iter (fun q -> T.insert tr q) queries) in
    Printf.printf "ranges              %d\n" n;
    Printf.printf "tau (optimal)       %d\n" tau;
    Printf.printf "hotspots (alpha=%g) %d\n" alpha (T.num_hotspots tr);
    Printf.printf "hotspot coverage    %.1f%%\n" (100.0 *. T.coverage tr);
    Printf.printf "scattered groups    %d\n" (T.scattered_groups tr);
    Printf.printf "moves/update        %.3f (bound: 5)\n"
      (float_of_int (T.moves tr) /. float_of_int (max 1 (T.updates tr)));
    Printf.printf "build time          %.2fs (%.1fus/insert)\n" dt (1e6 *. dt /. float_of_int n)
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a clustered workload and report its hotspot structure.")
    Term.(const run $ n $ clusters $ frac $ alpha $ seed)

(* Bursty overload demo: a Shed/Reject-policy parallel engine under
   volleys that outrun the drain, so the policy visibly engages.  Used
   by $(b,stats --overload). *)
let run_overload_demo ~seed ~overload ~events =
  let module Par = Cq_engine.Parallel in
  let module E = Cq_engine.Engine in
  let module I = Cq_interval.Interval in
  let t =
    Par.create ~alpha:0.1 ~seed ~shards:2 ~batch_size:8 ~overload ()
  in
  let rng = Cq_util.Rng.create seed in
  for _ = 1 to 12 do
    let lo = (Cq_util.Rng.float rng *. 30.0) -. 15.0 in
    ignore
      (Par.subscribe_band t ~range:(I.make lo (lo +. (1.0 +. (Cq_util.Rng.float rng *. 5.0))))
         (fun _ _ -> ()))
  done;
  let rejected = ref 0 and accepted = ref 0 in
  (* The burst workload's rows and flushes; its queries are replaced by
     the twelve bands above. *)
  Array.iter
    (function
      | Cq_robust.Fault.Rows (side, rows) -> (
          match Par.try_ingest_batch t side rows with
          | Ok () -> incr accepted
          | Error _ -> incr rejected)
      | Cq_robust.Fault.Flush -> ignore (Par.flush t)
      | _ -> ())
    (Cq_robust.Fault.gen_burst ~seed ~n:(max 24 (events / 50))).steps;
  ignore (Par.flush t);
  let totals = Par.shed_totals t in
  let info = Par.shed_info t in
  let stats = Par.stats t in
  Par.shutdown t;
  Format.printf "@[<v>%a@]@." E.pp_stats stats;
  Format.printf
    "@.-- overload (%s) ---------------------------------------------@."
    (E.Config.overload_to_string overload);
  Format.printf "batches accepted     %d@." !accepted;
  Format.printf "batches rejected     %d@." !rejected;
  Format.printf "candidates kept      %d@." totals.Par.par_kept;
  Format.printf "candidates dropped   %d@." totals.Par.par_dropped;
  Format.printf "min keep-rate        %.3f@." totals.Par.par_min_rate;
  Format.printf "chunks dropped whole %d (%d rows)@." totals.Par.par_dropped_chunks
    totals.Par.par_dropped_rows;
  Format.printf "degraded queries     %d@." (List.length info);
  List.iter
    (fun (d : E.degraded) ->
      Format.printf
        "  q%-4d observed %-6d estimate %-10.1f +/- %-10.1f (min rate %.3f)@." d.E.deg_qid
        d.E.deg_observed d.E.deg_estimate d.E.deg_claimed_error d.E.deg_rate)
    info;
  if totals.Par.par_dropped_rows > 0 then
    Format.printf
      "  note: %d rows were dropped whole at admission and are outside the estimates — \
       the claimed bounds above are not valid for this run@."
      totals.Par.par_dropped_rows

(* ------------------------------ fuzz ----------------------------------- *)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed; failures replay exactly under the same seed.")

(* Unknown enum-ish flag values get their own exit code and a one-line
   hint, not cmdliner's generic usage dump (124) and not a raw
   exception: scripts can tell a mistyped --strategy/--format apart
   from a real failure.  Validation therefore happens in the command
   bodies (below), not in a cmdliner conv. *)
let bad_flag_exit = 64

let bad_flag_value ~flag ~given ~valid =
  Printf.eprintf "cqctl: unknown %s %s (valid: %s)\n%!" flag given valid;
  Stdlib.exit bad_flag_exit

let strategy_arg =
  Arg.(
    value
    & opt string "hotspot"
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:"Event-processing strategy: $(b,hotspot) or $(b,ssi).")

let strategy_of s =
  match Hotspot_core.Processor.strategy_of_string s with
  | Ok k -> k
  | Error _ -> bad_flag_value ~flag:"--strategy" ~given:s ~valid:"hotspot, ssi"

let fuzz_cmd =
  let ops =
    Arg.(value & opt int 20_000 & info [ "ops" ] ~docv:"M" ~doc:"Operations per structure.")
  in
  let shards =
    Arg.(
      value & opt shard_count 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard count for the parallel-vs-sequential differential run.")
  in
  let faults =
    let f = Arg.enum [ ("default", `Default); ("burst", `Burst); ("drift", `Drift) ] in
    Arg.(
      value & opt f `Default
      & info [ "faults" ] ~docv:"KIND"
          ~doc:
            "Fault stream: $(b,default) runs the full structure battery, $(b,burst) replays \
             seeded overload bursts through the Shed policy and checks degraded answers \
             against the exact mirror, $(b,drift) replays walking-hotspot streams with online \
             register/deregister and checks delivery stays bit-for-bit \
             shard-count-independent.")
  in
  let run seed ops shards faults metrics =
    with_metrics metrics @@ fun () ->
    let module O = Cq_robust.Oracle in
    let module F = Cq_robust.Fault in
    let outcomes =
      match faults with
      | `Burst ->
          (* The shed battery: forced-rate differential checks at two
             rates and two shard counts, the mixed-rate schedule that
             interleaves exact and shedding phases, then the adaptive
             burst-liveness replay. *)
          let n = max 100 (ops / 100) in
          List.concat_map
            (fun rate ->
              List.map
                (fun n_shards ->
                  O.diff (F.gen_uniform ~rates:[| rate |] ~seed ~n ()) O.Reference (O.Par n_shards)
                    O.Shed_bounds)
                [ 1; shards ])
            [ 0.25; 0.75 ]
          @ [
              O.diff (F.gen_uniform ~rates:F.mixed_rates ~seed ~n ()) O.Reference O.Seq_rows
                O.Shed_bounds;
              O.diff (F.gen_burst ~seed ~n:(max 24 (ops / 500))) O.Reference (O.Par shards)
                O.Shed_bounds;
            ]
      | `Drift ->
          (* Walking-hotspot replays at the requested shard count and a
             second one, so a placement-dependent bug can't hide behind
             a single layout. *)
          let n = max 240 (ops / 50) in
          List.map
            (fun n_shards ->
              O.diff (F.gen_drift ~shards:n_shards ~seed ~n ()) (O.Par 1) (O.Par n_shards) O.Same)
            [ shards; (if shards = 2 then 4 else 2) ]
      | `Default -> O.fuzz_all ~shards ~seed ~ops ()
    in
    List.iter (fun o -> Format.printf "@[<v>%a@]@." Cq_robust.Oracle.pp_outcome o) outcomes;
    let bad = List.filter (fun o -> not (Cq_robust.Oracle.passed o)) outcomes in
    if List.is_empty bad then (
      Format.printf "all %d structures agree with the oracle@." (List.length outcomes);
      `Ok ())
    else
      let faults_flag =
        match faults with
        | `Burst -> " --faults burst"
        | `Drift -> " --faults drift"
        | `Default -> ""
      in
      `Error
        ( false,
          Printf.sprintf
            "%d structure(s) diverged or violated invariants; replay exactly with: cqctl \
             fuzz%s --seed %d --ops %d --shards %d"
            (List.length bad) faults_flag seed ops shards )
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: run a seeded adversarial operation stream against every \
          structure and a naive oracle; exit nonzero on any divergence or invariant violation.")
    Term.(ret (const run $ seed_arg $ ops $ shards $ faults $ metrics_term))

(* ------------------------------ audit ---------------------------------- *)

let audit_cmd =
  let n =
    Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Workload operations to build each structure from.")
  in
  let run seed n metrics =
    with_metrics metrics @@ fun () ->
    let reports = Cq_robust.Oracle.audit_workload ~seed ~n () in
    let bad = ref 0 in
    List.iter
      (fun (name, report) ->
        (match report with Ok () -> () | Error _ -> incr bad);
        Format.printf "@[<v>%-22s %a@]@." name Cq_robust.Invariant.pp_report report)
      reports;
    if !bad = 0 then `Ok ()
    else `Error (false, Printf.sprintf "%d structure(s) failed their audit (seed %d)" !bad seed)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Build every structure from a seeded workload and run its deep invariant audit; \
          exit nonzero on any violation.")
    Term.(ret (const run $ seed_arg $ n $ metrics_term))

(* ------------------------- stats and trace ------------------------------ *)

let demo_queries =
  Arg.(value & opt int 400 & info [ "queries" ] ~docv:"N" ~doc:"Band queries to subscribe.")

let demo_events =
  Arg.(value & opt int 2_000 & info [ "events" ] ~docv:"N" ~doc:"Tuples to stream through.")

let demo_alpha =
  Arg.(value & opt float 0.02 & info [ "alpha" ] ~doc:"Hotspot threshold.")

let overload_arg =
  let module C = Cq_engine.Engine.Config in
  Arg.(
    value
    & opt (enum [ ("block", C.Block); ("reject", C.Reject); ("shed", C.Shed) ]) C.Block
    & info [ "overload" ] ~docv:"POLICY"
        ~doc:
          "Overload policy for the demo: $(b,block) runs the exact sequential demo; \
           $(b,reject) and $(b,shed) run a bursty parallel demo under that policy and \
           report admission/shedding counters and degraded-answer bounds.")

(* $(b,stats --shards N): replay a walking-hotspot drift stream through
   an N-shard parallel engine and print the per-shard load gauges — the
   live view the parallel.shard.* metrics export. *)
let run_shard_demo ~seed ~shards ~events =
  let module Par = Cq_engine.Parallel in
  let w = Cq_robust.Fault.gen_drift ~shards ~seed ~n:(max 240 events) () in
  let t = Par.create ~alpha:0.1 ~seed ~shards ~batch_size:8 () in
  let o = Cq_robust.Oracle.replay_par t w in
  Option.iter
    (fun (d : Cq_robust.Oracle.divergence) ->
      Format.printf "replay diverged at step %d: %s@." d.op_index d.detail)
    o.failure;
  List.iter (Format.printf "VIOLATION %a@." Cq_robust.Invariant.pp_violation) o.violations;
  let loads = Par.shard_loads t in
  Format.printf "@[<v>-- shard loads (drift demo, %d events) ----------------------@]@."
    (Array.length w.steps);
  Format.printf "  %-6s %8s %8s %10s %7s %10s@." "shard" "queries" "groups" "max group"
    "queue" "delivered";
  Array.iter
    (fun (l : Par.shard_load) ->
      Format.printf "  %-6d %8d %8d %10d %7d %10d@." l.Par.sl_shard l.Par.sl_queries
        l.Par.sl_groups l.Par.sl_max_group l.Par.sl_queue_depth l.Par.sl_delivered)
    loads;
  Par.shutdown t

let stats_cmd =
  let shards =
    Arg.(
      value
      & opt (some shard_count) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run the demo through an $(docv)-shard parallel engine under a walking-hotspot \
             drift stream and print per-shard load gauges instead of the sequential stats \
             block.")
  in
  let run seed queries events alpha strategy overload shards =
    let strategy = strategy_of strategy in
    Cq_obs.Metrics.set_enabled true;
    Cq_obs.Trace.set_enabled true;
    (match (shards, overload) with
    | Some shards, _ -> run_shard_demo ~seed ~shards ~events
    | None, Cq_engine.Engine.Config.Block ->
        let eng = run_demo ~queries ~events ~alpha ~seed ~strategy in
        Format.printf "@[<v>%a@]@." Cq_engine.Engine.pp_stats (Cq_engine.Engine.stats eng)
    | None, ((Cq_engine.Engine.Config.Reject | Cq_engine.Engine.Config.Shed) as overload) ->
        run_overload_demo ~seed ~overload ~events);
    Format.printf "@.-- metrics ---------------------------------------------------@.%a"
      Cq_obs.Metrics.pp ();
    Format.printf "@.-- trace tail ------------------------------------------------@.%a"
      (Cq_obs.Trace.pp_tail ~limit:20) ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an instrumented demo workload and print the engine stats block, the metrics \
          registry, and the trace tail.  With $(b,--overload reject|shed), a bursty \
          parallel demo exercises the admission-control / load-shedding path instead.  \
          With $(b,--shards N), a walking-hotspot drift demo prints per-shard load \
          gauges.")
    Term.(
      const run $ seed_arg $ demo_queries $ demo_events $ demo_alpha $ strategy_arg
      $ overload_arg $ shards)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the Chrome trace_event JSON.")
  in
  let run seed queries events alpha strategy out =
    let strategy = strategy_of strategy in
    Cq_obs.Metrics.set_enabled true;
    Cq_obs.Trace.set_enabled true;
    ignore (run_demo ~queries ~events ~alpha ~seed ~strategy);
    Cq_obs.Trace.write_chrome ~path:out;
    Printf.printf "wrote %d trace events to %s (%d dropped by the ring)\n"
      (Cq_obs.Trace.length ()) out
      (Cq_obs.Trace.dropped ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the instrumented demo workload and export the trace ring as Chrome \
          trace_event JSON (load in chrome://tracing or Perfetto).")
    Term.(
      const run $ seed_arg $ demo_queries $ demo_events $ demo_alpha $ strategy_arg
      $ out)

(* --------------------------- serve / client ----------------------------- *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let resolve_addr host port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ ->
      Error (Printf.sprintf "not an IP address: %s (try 127.0.0.1)" host)

let serve_cmd =
  let port =
    Arg.(
      value & opt int 7171
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on; 0 picks an ephemeral port (printed at startup).")
  in
  let max_sessions =
    Arg.(
      value & opt int 1000
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Accept cap; connections beyond it are refused with a typed error frame.  At \
             most 1000 (the select(2) FD_SETSIZE budget).")
  in
  let session_queue =
    Arg.(
      value & opt int 64
      & info [ "session-queue" ] ~docv:"FRAMES"
          ~doc:
            "Bounded result-queue capacity per session.  Small values make slow readers \
             shed (with OVERLOAD notices) sooner.")
  in
  let shards =
    Arg.(
      value & opt shard_count 1
      & info [ "shards" ] ~docv:"N" ~doc:"Worker shards for the parallel engine.")
  in
  let alpha =
    Arg.(value & opt float 0.01 & info [ "alpha" ] ~doc:"Hotspot threshold.")
  in
  let run seed host port max_sessions session_queue shards alpha strategy metrics =
    let strategy = strategy_of strategy in
    with_metrics metrics @@ fun () ->
    match resolve_addr host port with
    | Error msg -> `Error (false, msg)
    | Ok addr -> (
        let engine =
          {
            Cq_engine.Engine.Config.default with
            Cq_engine.Engine.Config.alpha;
            seed;
            strategy;
            shards;
          }
        in
        let config =
          { Cq_net.Server.default_config with engine; max_sessions; session_queue }
        in
        match Cq_net.Server.try_create ~config ~addr () with
        | Error e -> `Error (false, Cq_util.Error.to_string e)
        | Ok srv ->
            let stop _ = Cq_net.Server.stop srv in
            Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
            Printf.printf "cqctl serve: listening on %s:%d (strategy %s, %d shard%s)\n%!"
              host (Cq_net.Server.port srv)
              (Hotspot_core.Processor.strategy_to_string strategy)
              shards
              (if shards = 1 then "" else "s");
            Cq_net.Server.serve srv;
            Format.printf "@[<v>%a@]@." Cq_net.Server.pp_stats (Cq_net.Server.stats srv);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the continuous-query engine over TCP (DESIGN.md \xc2\xa714): sessions register \
          band/select queries, stream tuple batches, and receive fan-out result frames \
          with end-to-end backpressure.  Stop with SIGINT/SIGTERM.")
    Term.(
      ret
        (const run $ seed_arg $ host_arg $ port $ max_sessions $ session_queue $ shards
        $ alpha $ strategy_arg $ metrics_term))

let client_cmd =
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port to connect to.")
  in
  let bands =
    Arg.(
      value
      & opt_all (pair ~sep:':' float float) [ (400.0, 600.0) ]
      & info [ "band" ] ~docv:"LO:HI"
          ~doc:"Band-query window to register (repeatable; default one 400:600 window).")
  in
  let batches =
    Arg.(value & opt int 32 & info [ "batches" ] ~docv:"N" ~doc:"Tuple batches to stream.")
  in
  let rows =
    Arg.(value & opt int 64 & info [ "rows" ] ~docv:"N" ~doc:"Rows per batch.")
  in
  let run seed host port bands batches rows =
    let module Client = Cq_net.Client in
    let module Frame = Cq_net.Frame in
    let fail e = `Error (false, Client.error_to_string e) in
    match resolve_addr host port with
    | Error msg -> `Error (false, msg)
    | Ok addr -> (
        match Client.connect ~addr () with
        | Error e -> fail e
        | Ok c -> (
            Printf.printf "session %d\n%!" (Client.session_id c);
            let rec register = function
              | [] -> Ok ()
              | (lo, hi) :: rest -> (
                  match Client.register_band c ~lo ~hi with
                  | Error _ as e -> e
                  | Ok qid ->
                      Printf.printf "registered [%g, %g] as q%d\n%!" lo hi qid;
                      register rest)
            in
            match register bands with
            | Error e ->
                Client.close c;
                fail e
            | Ok () ->
                (* Seeded stream in the demo domain [0, 1000): R rows
                   carry (a, b), S rows (b, c); flushing every batch
                   keeps results arriving incrementally. *)
                let rng = Cq_util.Rng.create seed in
                let accepted = ref 0 and result_rows = ref 0 and dropped = ref 0 in
                let outcome = ref (`Ok ()) in
                (try
                   for _ = 1 to batches do
                     let side = if Cq_util.Rng.bool rng then Frame.R else Frame.S in
                     let rows =
                       Array.init rows (fun _ ->
                           ( 1000.0 *. Cq_util.Rng.float rng,
                             1000.0 *. Cq_util.Rng.float rng ))
                     in
                     (match
                        Client.send_batch c ~side (Cq_net.Driver.batch_of_rows rows)
                      with
                     | Ok (Client.Accepted n) -> accepted := !accepted + n
                     | Ok (Client.Overloaded { source; dropped = d; retry_after_ms }) ->
                         Printf.printf "OVERLOAD (%s): %d dropped, retry in %.1fms\n%!"
                           (Frame.overload_source_to_string source)
                           d retry_after_ms
                     | Error e ->
                         outcome := fail e;
                         raise Exit);
                     match Client.flush c with
                     | Error e ->
                         outcome := fail e;
                         raise Exit
                     | Ok _ ->
                         List.iter
                           (fun (_, rs) -> result_rows := !result_rows + Array.length rs)
                           (Client.take_results c);
                         List.iter
                           (fun (source, d, _) ->
                             dropped := !dropped + d;
                             Printf.printf "OVERLOAD (%s): %d result rows dropped\n%!"
                               (Frame.overload_source_to_string source)
                               d)
                           (Client.take_overloads c)
                   done
                 with Exit -> ());
                (match !outcome with `Ok () -> ignore (Client.bye c) | _ -> Client.close c);
                Printf.printf
                  "streamed %d rows in %d batches; %d result rows received, %d dropped at \
                   the server\n%!"
                  !accepted batches !result_rows !dropped;
                !outcome))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Connect to $(b,cqctl serve), register band queries, stream a seeded tuple \
          workload, and report the result rows received.")
    Term.(ret (const run $ seed_arg $ host_arg $ port $ bands $ batches $ rows))

let lint_cmd =
  (* Shares Cq_lint.Engine with the standalone cqlint binary — same
     rules, same waivers, same exit discipline.  --format is a plain
     string validated in the body so a typo exits 64 with a hint, like
     every other enum-ish cqctl flag. *)
  let format_arg =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let sarif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:"Also write a SARIF 2.1.0 report to $(docv) (for GitHub code scanning).")
  in
  let waivers_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "waivers" ] ~docv:"FILE" ~doc:"Waiver allowlist (default: ROOT/.cqlint if present).")
  in
  let root_arg =
    Arg.(value & pos 0 dir "." & info [] ~docv:"ROOT" ~doc:"Workspace root containing lib/ and bin/.")
  in
  let run format sarif_file waiver_file root =
    (match format with
    | "text" | "json" -> ()
    | other -> bad_flag_value ~flag:"--format" ~given:other ~valid:"text, json");
    let report = Cq_lint.Engine.run ?waiver_file ~root () in
    (match sarif_file with
    | Some f ->
        Out_channel.with_open_bin f (fun oc ->
            Out_channel.output_string oc (Cq_lint.Render.sarif_of_report report))
    | None -> ());
    (match format with
    | "json" -> print_endline (Cq_lint.Render.json_of_report report)
    | _ -> print_string (Cq_lint.Render.text_of_report report));
    if Cq_lint.Engine.clean report then `Ok () else `Error (false, "lint findings (see above)")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the cqlint static-analysis gate (CQL001-CQL010: style, error and state \
          discipline plus domain-safety, event-loop and hot-path allocation rules) \
          over lib/ and bin/.")
    Term.(ret (const run $ format_arg $ sarif_arg $ waivers_arg $ root_arg))

let main =
  let doc = "scalable continuous query processing by tracking hotspots (VLDB 2006 reproduction)" in
  Cmd.group
    (Cmd.info "cqctl" ~version:"1.0.0" ~doc)
    [
      bench_cmd; list_cmd; zipf_cmd; workload_cmd; fuzz_cmd; audit_cmd; stats_cmd;
      trace_cmd; serve_cmd; client_cmd; lint_cmd;
    ]

let () = exit (Cmd.eval main)
