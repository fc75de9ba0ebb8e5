(* Select-join experiments: Figures 7(i), 7(ii), 8(iii), 8(iv) and 9. *)

module SJ = Cq_joins.Select_join
module SQ = Cq_joins.Select_query
module Tuple = Cq_relation.Tuple
module Table = Cq_relation.Table

let strategies : (module SJ.STRATEGY) list =
  [ (module SJ.Naive); (module SJ.Join_first); (module SJ.Select_first); (module SJ.Ssi) ]

(* Identification throughput: the paper's measurement excludes output
   enumeration, so events are processed through [affected]. *)
let run_one (module S : SJ.STRATEGY) table queries events =
  let st = S.create table queries in
  let affected = ref 0 in
  let warmup = max 1 (Array.length events / 10) in
  let tput =
    Report.throughput ~events ~warmup (fun r -> S.affected st r (fun _ -> incr affected))
  in
  (tput, !affected)

(* The stabbing number of the rangeC projections, as SJ-SSI sees it. *)
let tau_of_queries queries =
  Hotspot_core.Stabbing.tau (fun (q : SQ.t) -> q.range_c) queries

(* ---------------------------- Figure 7(i) ----------------------------- *)

let fig7i (scale : Setup.scale) =
  Report.section "fig7i" "Equality joins w/ local selections: throughput vs #queries";
  Report.note "paper: NAIVE and SJ-S degrade linearly; SJ-J loses to 2-D stabbing cost;";
  Report.note "SJ-SSI stays within ~20%% across 10 .. 100k queries (tau ~ 30).";
  (* A sparse-join regime (few joining S-tuples per event) keeps the
     per-event affected-query count — the output-sensitive k term of
     Theorem 4 — small, which is the regime where the paper's near-flat
     SJ-SSI curve lives. *)
  let quantum = 5.0 in
  let table = Setup.s_table ~quantum scale ~seed:1 in
  let events = Setup.r_events ~quantum scale ~seed:2 ~n:scale.events in
  let sizes =
    [ 10; 100; 1000; 10_000; scale.queries ] |> List.sort_uniq Int.compare
    |> List.filter (fun n -> n <= scale.queries)
  in
  let rows =
    List.map
      (fun n ->
        (* len_c clamped at 350 keeps tau ~ 30 (paper's setting). *)
        let queries =
          Setup.select_queries scale ~seed:3 ~n ~len_a_mu:1000.0 ~len_c_mu:600.0
            ~len_c_min:350.0 ()
        in
        let tau = tau_of_queries queries in
        let cells =
          List.map
            (fun s ->
              let tput, _ = run_one s table queries events in
              Report.fmt_throughput tput)
            strategies
        in
        let _, affected = run_one (module SJ.Ssi) table queries events in
        let per_event = affected * 10 / (9 * Array.length events) in
        (string_of_int n :: string_of_int tau :: cells) @ [ string_of_int per_event ])
      sizes
  in
  Report.table
    ~header:
      (("queries" :: "tau" :: List.map (fun (module S : SJ.STRATEGY) -> S.name) strategies)
      @ [ "affected/event" ])
    ~rows

(* ---------------------------- Figure 7(ii) ---------------------------- *)

let fig7ii (scale : Setup.scale) =
  Report.section "fig7ii" "Equality joins: throughput vs number of stabbing groups";
  Report.note "paper: NAIVE/SJ-S indifferent to clusteredness; SJ-SSI degrades as tau";
  Report.note "grows and crosses below SJ-S once tau exceeds the R.A event selectivity.";
  let quantum = 5.0 in
  let table = Setup.s_table ~quantum scale ~seed:1 in
  let events = Setup.r_events ~quantum scale ~seed:2 ~n:scale.events in
  let n = scale.queries in
  let rows =
    List.map
      (fun len_c_min ->
        (* rangeA sized so the event selectivity on R.A is ~250 queries
           per event in absolute terms, as in the paper ("SJ-S
           outperforms SJ-SSI when there are more than 250 stabbing
           groups, as the event selectivity on R.A is roughly 250"). *)
        let queries =
          Setup.select_queries scale ~seed:3 ~n
            ~len_a_mu:125.0
            ~len_c_mu:(len_c_min *. 1.7)
            ~len_c_min ()
        in
        let tau = tau_of_queries queries in
        string_of_int tau
        :: List.map
             (fun s ->
               let tput, _ = run_one s table queries events in
               Report.fmt_throughput tput)
             strategies)
      [ 1000.0; 330.0; 100.0; 33.0; 10.0 ]
  in
  Report.table
    ~header:("tau" :: List.map (fun (module S : SJ.STRATEGY) -> S.name) strategies)
    ~rows

(* --------------------------- Figure 8(iii) ---------------------------- *)

let fig8iii (scale : Setup.scale) =
  Report.section "fig8iii" "Equality joins: throughput vs event selectivity on R.A";
  Report.note "paper: SJ-S deteriorates linearly in the number of queries whose R.A";
  Report.note "selection the event satisfies (n'); SJ-SSI is unaffected.";
  let quantum = 1.0 in
  let table = Setup.s_table ~quantum scale ~seed:1 in
  let events = Setup.r_events ~quantum scale ~seed:2 ~n:scale.events in
  let n = scale.queries in
  let pair_strategies : (module SJ.STRATEGY) list = [ (module SJ.Select_first); (module SJ.Ssi) ] in
  let rows =
    List.map
      (fun len_a_mu ->
        let queries =
          Setup.select_queries scale ~seed:3 ~n ~len_a_mu ~len_c_mu:600.0 ~len_c_min:350.0 ()
        in
        (* Measure n': average number of satisfied R.A selections. *)
        let sat = ref 0 in
        Array.iter
          (fun (r : Tuple.r) ->
            Array.iter
              (fun (q : SQ.t) -> if Cq_interval.Interval.stabs q.range_a r.a then incr sat)
              queries)
          events;
        let n' = float_of_int !sat /. float_of_int (Array.length events) in
        Printf.sprintf "%.0f" n'
        :: List.map
             (fun s ->
               let tput, _ = run_one s table queries events in
               Report.fmt_throughput tput)
             pair_strategies)
      [ 25.0; 50.0; 100.0; 175.0; 250.0 ]
  in
  Report.table
    ~header:("avg n' (queries/event)" :: List.map (fun (module S : SJ.STRATEGY) -> S.name) pair_strategies)
    ~rows

(* ---------------------------- Figure 8(iv) ---------------------------- *)

let fig8iv (scale : Setup.scale) =
  Report.section "fig8iv" "Equality joins: throughput vs event selectivity on S";
  Report.note "paper: only SJ-J degrades (linearly in the number of joining S-tuples";
  Report.note "m'); the rest are immune.";
  let n = scale.queries in
  let queries =
    Setup.select_queries scale ~seed:3 ~n ~len_a_mu:1000.0 ~len_c_mu:600.0 ~len_c_min:350.0 ()
  in
  let rows =
    List.map
      (fun quantum ->
        let table = Setup.s_table ~quantum scale ~seed:1 in
        let events = Setup.r_events ~quantum scale ~seed:2 ~n:scale.events in
        (* Measure m': average joining S-tuples per event. *)
        let joined = ref 0 in
        Array.iter
          (fun (r : Tuple.r) ->
            joined :=
              !joined
              + Cq_index.Btree.count_range (Table.s_by_b table) r.b neg_infinity r.b infinity)
          events;
        let m' = float_of_int !joined /. float_of_int (Array.length events) in
        Printf.sprintf "%.0f" m'
        :: List.map
             (fun s ->
               let tput, _ = run_one s table queries events in
               Report.fmt_throughput tput)
             strategies)
      [ 10.0; 50.0; 100.0; 500.0; 1000.0 ]
  in
  Report.table
    ~header:("avg m' (S-tuples/event)" :: List.map (fun (module S : SJ.STRATEGY) -> S.name) strategies)
    ~rows

(* ----------------------------- Figure 9 ------------------------------- *)

let fig9 (scale : Setup.scale) =
  Report.section "fig9" "SSI + hotspot tracking vs traditional (SJ-S)";
  Report.note "paper: TRADITIONAL is flat across clusteredness; HOTSPOT-BASED improves";
  Report.note "linearly with the fraction of intervals covered by hotspots.";
  let quantum = 1.0 in
  let table = Setup.s_table ~quantum scale ~seed:1 in
  let events = Setup.r_events ~quantum scale ~seed:2 ~n:(max 50 (scale.events / 2)) in
  (* A larger query population, as in the paper's 500k-query setup. *)
  let n = scale.queries * 5 / 2 in
  let n_clusters = 100 in
  let alpha = 0.001 in
  let rows =
    List.map
      (fun frac ->
        let queries =
          Setup.clustered_select_queries ~seed:3 ~n ~n_clusters ~clustered_frac:frac
        in
        let trad = SJ.Select_first.create table queries in
        let hot = SJ.Hotspot.create_alpha ~alpha table queries in
        let sinkc = ref 0 in
        let warmup = max 1 (Array.length events / 10) in
        let t_trad =
          Report.throughput ~events ~warmup (fun r ->
              SJ.Select_first.affected trad r (fun _ -> incr sinkc))
        in
        let t_hot =
          Report.throughput ~events ~warmup (fun r ->
              SJ.Hotspot.affected hot r (fun _ -> incr sinkc))
        in
        [
          Printf.sprintf "%.0f%%" (100.0 *. SJ.Hotspot.coverage hot);
          string_of_int (SJ.Hotspot.num_hotspots hot);
          Report.fmt_ns (1e9 /. t_trad);
          Report.fmt_ns (1e9 /. t_hot);
        ])
      [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
  in
  Report.table
    ~header:[ "hotspot coverage"; "hotspots"; "TRADITIONAL (per event)"; "HOTSPOT-BASED (per event)" ]
    ~rows
