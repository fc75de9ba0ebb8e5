module I = Cq_interval.Interval
module W = Cq_relation.Workload
module Rng = Cq_util.Rng
module Dist = Cq_util.Dist

type scale = { tuples : int; queries : int; events : int; shards : int list }

let quick = { tuples = 20_000; queries = 20_000; events = 200; shards = [ 1; 2; 4 ] }
let full = { tuples = 100_000; queries = 100_000; events = 500; shards = [ 1; 2; 4; 8 ] }

let domain = (0.0, 10_000.0)

let config ?(quantum = 100.0) ?(sb_sigma = 1000.0) () =
  { W.default with W.b_quantum = quantum; sb_sigma }

let s_table ?quantum ?sb_sigma scale ~seed =
  let c = config ?quantum ?sb_sigma () in
  let rng = Rng.create seed in
  Cq_relation.Table.of_s_tuples (W.gen_s_tuples c rng ~n:scale.tuples)

let r_events ?quantum scale ~seed ~n =
  ignore scale;
  let c = config ?quantum () in
  W.gen_r_tuples c (Rng.create seed) ~n

(* Raw-row variants for the batch-ingest API of Cq_engine.Parallel,
   which assigns tuple ids itself. *)
let s_rows ?quantum ?sb_sigma scale ~seed =
  let c = config ?quantum ?sb_sigma () in
  Array.map
    (fun (s : Cq_relation.Tuple.s) -> (s.b, s.c))
    (W.gen_s_tuples c (Rng.create seed) ~n:scale.tuples)

let r_rows ?quantum scale ~seed ~n =
  Array.map (fun (r : Cq_relation.Tuple.r) -> (r.a, r.b)) (r_events ?quantum scale ~seed ~n)

let draw_len rng ~mu ~sigma ~min_len = Float.max min_len (Dist.normal rng ~mu ~sigma)

let select_queries scale ~seed ~n ~len_a_mu ~len_c_mu ?(len_c_min = 0.0) () =
  ignore scale;
  let rng = Rng.create seed in
  let lo, hi = domain in
  Array.init n (fun qid ->
      let mid_a = Dist.normal rng ~mu:5000.0 ~sigma:1500.0 in
      let len_a = draw_len rng ~mu:len_a_mu ~sigma:(len_a_mu /. 5.0) ~min_len:0.0 in
      let mid_c = Dist.uniform rng ~lo ~hi in
      let len_c = draw_len rng ~mu:len_c_mu ~sigma:(len_c_mu /. 5.0) ~min_len:len_c_min in
      Cq_joins.Select_query.make ~qid
        ~range_a:(I.of_midpoint ~mid:mid_a ~len:len_a)
        ~range_c:(I.of_midpoint ~mid:mid_c ~len:len_c))

let band_queries scale ~seed ~n ~len_mu ?(len_min = 0.0) () =
  ignore scale;
  let rng = Rng.create seed in
  let lo, hi = domain in
  Array.init n (fun qid ->
      let mid = Dist.uniform rng ~lo ~hi in
      let len = draw_len rng ~mu:len_mu ~sigma:(len_mu /. 2.5) ~min_len:len_min in
      Cq_joins.Band_query.make ~qid ~range:(I.of_midpoint ~mid ~len))

let clustered_select_queries ~seed ~n ~n_clusters ~clustered_frac =
  let rng = Rng.create seed in
  (* Scattered rangeC's are short, so the scattered remainder's own
     stabbing groups stay below realistic hotspot thresholds. *)
  let ranges_c =
    W.gen_clustered_ranges ~scattered_len:(3.0, 1.0) rng ~n ~n_clusters ~clustered_frac
      ~domain ~cluster_halfwidth:60.0 ~len_mu:300.0 ~len_sigma:100.0
  in
  Array.mapi
    (fun qid range_c ->
      let mid_a = Dist.normal rng ~mu:5000.0 ~sigma:1500.0 in
      let len_a = draw_len rng ~mu:1000.0 ~sigma:200.0 ~min_len:0.0 in
      Cq_joins.Select_query.make ~qid ~range_a:(I.of_midpoint ~mid:mid_a ~len:len_a) ~range_c)
    ranges_c
