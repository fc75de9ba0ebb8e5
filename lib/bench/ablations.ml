(* Ablations over the design choices DESIGN.md calls out: epsilon,
   alpha, maintainer choice, and SSI-on-all-groups vs hotspots-only. *)

module I = Cq_interval.Interval
module BQ = Cq_joins.Band_query
module SJ = Cq_joins.Select_join
module Rng = Cq_util.Rng

module P = Hotspot_core.Refined_partition.Make (BQ.Elem)
module L = Hotspot_core.Lazy_partition.Make (BQ.Elem)
module T = Hotspot_core.Hotspot_tracker.Make (Cq_joins.Select_query.Elem_c)

(* A churn trace over clustered band windows: insert-heavy at first,
   then a 50/50 mix. *)
let churn_trace ~seed ~n =
  let rng = Rng.create seed in
  let ranges =
    Cq_relation.Workload.gen_clustered_ranges rng ~n ~n_clusters:40 ~clustered_frac:0.8
      ~domain:Setup.domain ~cluster_halfwidth:80.0 ~len_mu:400.0 ~len_sigma:150.0
  in
  Array.mapi (fun qid range -> BQ.make ~qid ~range) ranges

let ab_eps (scale : Setup.scale) =
  Report.section "ablation-eps" "Partition slack epsilon: quality vs maintenance cost";
  Report.note "smaller eps -> partition closer to optimal but more reconstructions;";
  Report.note "the paper runs Figure 11 with eps = 3.";
  let n = scale.queries / 2 in
  let queries = churn_trace ~seed:11 ~n in
  let tau = Hotspot_core.Stabbing.tau BQ.Elem.interval queries in
  let rows =
    List.map
      (fun epsilon ->
        let p = P.create ~epsilon ~seed:1 () in
        let ns =
          Report.time_per_op ~n (fun i ->
              P.insert p queries.(i);
              (* Delete every third element to exercise both paths. *)
              if i mod 3 = 2 then ignore (P.delete p queries.(i - 1)))
        in
        [
          Printf.sprintf "%.2f" epsilon;
          Report.fmt_ns ns;
          string_of_int (P.num_groups p);
          Printf.sprintf "%.2fx"
            (float_of_int (P.num_groups p)
            /. float_of_int (max 1 (Hotspot_core.Stabbing.tau BQ.Elem.interval
                                      (Array.of_list (List.concat_map snd (P.groups p))))));
          string_of_int (P.reconstructions p);
        ])
      [ 0.25; 0.5; 1.0; 2.0; 3.0; 5.0 ]
  in
  Report.note "tau of the full query set = %d" tau;
  Report.table
    ~header:[ "eps"; "per-update"; "groups"; "groups/tau"; "reconstructions" ]
    ~rows

let ab_maintainer (scale : Setup.scale) =
  Report.section "ablation-maintainer" "Refined (Appendix B) vs lazy (simple strategy)";
  Report.note "same trace, eps = 1: the lazy strategy pays O(n log n) rebuilds, the";
  Report.note "refined one O(tau log n) split/join reconstructions.";
  let n = scale.queries / 2 in
  let queries = churn_trace ~seed:13 ~n in
  let run_refined () =
    let p = P.create ~epsilon:1.0 ~seed:1 () in
    let ns =
      Report.time_per_op ~n (fun i ->
          P.insert p queries.(i);
          if i mod 3 = 2 then ignore (P.delete p queries.(i - 1)))
    in
    (ns, P.num_groups p, P.reconstructions p)
  in
  let run_lazy () =
    let p = L.create ~epsilon:1.0 ~seed:1 () in
    let ns =
      Report.time_per_op ~n (fun i ->
          L.insert p queries.(i);
          if i mod 3 = 2 then ignore (L.delete p queries.(i - 1)))
    in
    (ns, L.num_groups p, L.reconstructions p)
  in
  let rns, rg, rr = run_refined () in
  let lns, lg, lr = run_lazy () in
  Report.table
    ~header:[ "maintainer"; "per-update"; "groups"; "reconstructions" ]
    ~rows:
      [
        [ "refined (Appendix B)"; Report.fmt_ns rns; string_of_int rg; string_of_int rr ];
        [ "lazy (simple)"; Report.fmt_ns lns; string_of_int lg; string_of_int lr ];
      ]

let ab_alpha (scale : Setup.scale) =
  Report.section "ablation-alpha" "Hotspot threshold alpha: coverage vs group count";
  Report.note "smaller alpha admits more (smaller) hotspots: coverage rises, the";
  Report.note "per-event group scan grows as 2/alpha.";
  let n = scale.queries in
  let queries = Setup.clustered_select_queries ~seed:17 ~n ~n_clusters:60 ~clustered_frac:0.8 in
  let rows =
    List.map
      (fun alpha ->
        let tr = T.create ~alpha () in
        let ns = Report.time_per_op ~n (fun i -> T.insert tr queries.(i)) in
        [
          Printf.sprintf "%.4f" alpha;
          string_of_int (T.num_hotspots tr);
          Printf.sprintf "%.1f%%" (100.0 *. T.coverage tr);
          Printf.sprintf "%.2f" (float_of_int (T.moves tr) /. float_of_int (T.updates tr));
          Report.fmt_ns ns;
        ])
      [ 0.05; 0.01; 0.005; 0.001; 0.0005 ]
  in
  Report.table
    ~header:[ "alpha"; "hotspots"; "coverage"; "moves/update"; "per-insert" ]
    ~rows

let ab_purist (scale : Setup.scale) =
  Report.section "ablation-purist" "SSI on every stabbing group vs hotspots only";
  Report.note "paper (Section 4): restricting SSI to hotspots avoids the overhead of";
  Report.note "visiting many small groups, where traditional processing wins.";
  let table = Setup.s_table scale ~seed:1 in
  let events = Setup.r_events scale ~seed:2 ~n:(max 50 (scale.events / 2)) in
  let n = scale.queries in
  let rows =
    List.map
      (fun frac ->
        let queries = Setup.clustered_select_queries ~seed:19 ~n ~n_clusters:60 ~clustered_frac:frac in
        let purist = SJ.Ssi.create table queries in
        let hybrid = SJ.Hotspot.create_alpha ~alpha:0.002 table queries in
        let sink = ref 0 in
        let warmup = max 1 (Array.length events / 10) in
        let t_purist =
          Report.throughput ~events ~warmup (fun r ->
              SJ.Ssi.affected purist r (fun _ -> incr sink))
        in
        let t_hybrid =
          Report.throughput ~events ~warmup (fun r ->
              SJ.Hotspot.affected hybrid r (fun _ -> incr sink))
        in
        [
          Printf.sprintf "%.0f%%" (100.0 *. frac);
          Printf.sprintf "%.0f%%" (100.0 *. SJ.Hotspot.coverage hybrid);
          Report.fmt_throughput t_purist;
          Report.fmt_throughput t_hybrid;
        ])
      [ 0.2; 0.5; 0.8; 1.0 ]
  in
  Report.table
    ~header:[ "clustered frac"; "hotspot coverage"; "SJ-SSI (all groups)"; "SJ-Hotspot" ]
    ~rows

let ab_adaptive (scale : Setup.scale) =
  Report.section "ablation-adaptive" "Per-event cost-based strategy choice (Section 6)";
  Report.note "the dispatcher estimates n' from an SSI histogram over the rangeA";
  Report.note "selections and routes each event to SJ-S or SJ-SSI; it should track";
  Report.note "the better of the two across the whole selectivity sweep.";
  let quantum = 1.0 in
  let table = Setup.s_table ~quantum scale ~seed:1 in
  let events = Setup.r_events ~quantum scale ~seed:2 ~n:scale.events in
  let n = scale.queries in
  let module SJ2 = Cq_joins.Select_join in
  let rows =
    List.map
      (fun len_a_mu ->
        let queries =
          Setup.select_queries scale ~seed:3 ~n ~len_a_mu ~len_c_mu:600.0 ~len_c_min:350.0 ()
        in
        let run (module S : SJ2.STRATEGY) =
          let st = S.create table queries in
          let sink = ref 0 in
          let warmup = max 1 (Array.length events / 10) in
          Report.throughput ~events ~warmup (fun r -> S.affected st r (fun _ -> incr sink))
        in
        let ad = SJ2.Adaptive.create table queries in
        let sink = ref 0 in
        let warmup = max 1 (Array.length events / 10) in
        let t_ad =
          Report.throughput ~events ~warmup (fun r ->
              SJ2.Adaptive.affected ad r (fun _ -> incr sink))
        in
        let sf_n, ssi_n = SJ2.Adaptive.decisions ad in
        [
          Printf.sprintf "%.0f" len_a_mu;
          Report.fmt_throughput (run (module SJ2.Select_first));
          Report.fmt_throughput (run (module SJ2.Ssi));
          Report.fmt_throughput t_ad;
          Printf.sprintf "%d/%d" sf_n ssi_n;
        ])
      [ 25.0; 100.0; 500.0; 2000.0; 5000.0 ]
  in
  Report.table
    ~header:[ "rangeA len"; "SJ-S"; "SJ-SSI"; "SJ-ADAPT"; "routed SJ-S/SJ-SSI" ]
    ~rows
