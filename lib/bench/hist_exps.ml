(* Histogram experiment: Figure 12 — plus Figure 2's analytic model and
   the Table 1 parameter sheet. *)

module I = Cq_interval.Interval
module SF = Cq_histogram.Step_fn
module H = Cq_histogram.Histogram
module SH = Cq_histogram.Ssi_hist

(* ----------------------------- Figure 12 ------------------------------ *)

let fig12 (scale : Setup.scale) =
  Report.section "fig12" "Histogram quality: EQW-HIST vs SSI-HIST vs OPTIMAL";
  Report.note "paper: OPTIMAL consistently wins but is impractically slow to build";
  Report.note "(6.5h on a 10%% sample); SSI-HIST beats EQW throughout and closes most";
  Report.note "of the gap; EQW needs ~2.5x the buckets to match SSI-HIST at 20.";
  Report.note "workload: clustered intervals (18 Zipf-weighted clusters), the regime";
  Report.note "hotspots target; the paper's flat Table-1 draw yields a unimodal f on";
  Report.note "which every method is trivially accurate (see EXPERIMENTS.md).";
  let n = scale.tuples in
  let rng = Cq_util.Rng.create 42 in
  let ivs =
    Cq_relation.Workload.gen_clustered_ranges rng ~n ~n_clusters:18 ~clustered_frac:1.0
      ~domain:Setup.domain ~cluster_halfwidth:50.0 ~len_mu:150.0 ~len_sigma:80.0
  in
  let f = SF.of_intervals ivs in
  let lo, hi = Setup.domain in
  let prng = Cq_util.Rng.create 7 in
  let probes = Array.init 5000 (fun _ -> Cq_util.Dist.uniform prng ~lo ~hi) in
  (* OPTIMAL on a 10% sample, values scaled back up — exactly the
     paper's concession to its cost. *)
  let sample = Array.init (n / 10) (fun i -> ivs.(i * 10)) in
  let fs = SF.of_intervals sample in
  Report.note "tau = %d stabbing groups; %d breakpoints"
    (Hotspot_core.Stabbing.tau Fun.id ivs)
    (SF.num_pieces f);
  let build_opt buckets =
    let (opt, dt) =
      Cq_util.Clock.time (fun () -> H.optimal fs ~lo ~hi ~buckets)
    in
    ({ opt with H.values = Array.map (fun v -> v *. 10.0) opt.H.values }, dt)
  in
  let rows =
    List.map
      (fun buckets ->
        let ssi, ssi_dt = Cq_util.Clock.time (fun () -> SH.build ivs ~buckets) in
        let used = SH.buckets_used ssi in
        let eqw = H.equal_width f ~lo ~hi ~buckets:used in
        let eqd = H.equal_depth f ~lo ~hi ~buckets:used in
        let opt, opt_dt = build_opt used in
        [
          string_of_int buckets;
          string_of_int used;
          Printf.sprintf "%.1f%%" (100.0 *. H.avg_rel_error_on eqw f ~probes);
          Printf.sprintf "%.1f%%" (100.0 *. H.avg_rel_error_on eqd f ~probes);
          Printf.sprintf "%.1f%% (%.2fs)" (100.0 *. SH.avg_rel_error_on ssi f ~probes) ssi_dt;
          Printf.sprintf "%.1f%% (%.1fs, 10%% sample)"
            (100.0 *. H.avg_rel_error_on opt f ~probes)
            opt_dt;
        ])
      [ 20; 30; 40; 50; 60; 70 ]
  in
  Report.table
    ~header:[ "buckets"; "used"; "EQW-HIST"; "EQD-HIST"; "SSI-HIST"; "OPTIMAL" ]
    ~rows

(* ------------------------------ Figure 2 ------------------------------ *)

let fig2 (_scale : Setup.scale) =
  Report.section "fig2" "Hotspot coverage under Zipf-distributed group sizes";
  Report.note "paper: with 5000 groups, the top-500 (10%%) cover ~70%% of all queries";
  Report.note "at beta = 1, and more for larger beta.";
  let ks = [ 1; 10; 50; 100; 200; 300; 400; 500 ] in
  let betas = [ 1.0; 1.1; 1.2 ] in
  let rows =
    List.map
      (fun k ->
        string_of_int k
        :: List.map
             (fun beta ->
               Printf.sprintf "%.1f%%"
                 (100.0 *. Cq_util.Zipf_model.coverage ~n_groups:5000 ~beta ~top_k:k))
             betas)
      ks
  in
  Report.table
    ~header:("top-k groups" :: List.map (fun b -> Printf.sprintf "beta=%.1f" b) betas)
    ~rows

(* ------------------------------ Table 1 ------------------------------- *)

let table1 (scale : Setup.scale) =
  Report.section "table1" "Experimental parameters (Table 1)";
  Format.printf "%a@." Cq_relation.Workload.pp_config Cq_relation.Workload.default;
  Report.note "harness scale: |S| = %d tuples, %d queries, %d events per point"
    scale.tuples scale.queries scale.events
