type exp = {
  id : string;
  title : string;
  run : Setup.scale -> unit;
}

let paper_exps =
  [
    { id = "table1"; title = "Experimental parameters"; run = Hist_exps.table1 };
    { id = "fig2"; title = "Zipf hotspot coverage"; run = Hist_exps.fig2 };
    { id = "fig7i"; title = "Select-join throughput vs #queries"; run = Sj_exps.fig7i };
    { id = "fig7ii"; title = "Select-join throughput vs #groups"; run = Sj_exps.fig7ii };
    { id = "fig8iii"; title = "Select-join vs R.A selectivity"; run = Sj_exps.fig8iii };
    { id = "fig8iv"; title = "Select-join vs S selectivity"; run = Sj_exps.fig8iv };
    { id = "fig9"; title = "Hotspot-based vs traditional"; run = Sj_exps.fig9 };
    { id = "fig10i"; title = "Band-join throughput vs #queries"; run = Bj_exps.fig10i };
    { id = "fig10ii"; title = "Band-join throughput vs #groups"; run = Bj_exps.fig10ii };
    { id = "fig11"; title = "Band-join maintenance cost"; run = Bj_exps.fig11 };
    { id = "fig12"; title = "Histogram quality"; run = Hist_exps.fig12 };
  ]

let scale_exps =
  [
    {
      id = "scale-domains";
      title = "Parallel engine: throughput vs shard count";
      run = Scale_exps.scale_domains;
    };
    {
      id = "overload";
      title = "Overload management: admission control and load shedding";
      run = Overload_exps.overload;
    };
  ]

let ablation_exps =
  [
    { id = "ablation-eps"; title = "Epsilon sweep"; run = Ablations.ab_eps };
    { id = "ablation-alpha"; title = "Alpha sweep"; run = Ablations.ab_alpha };
    {
      id = "ablation-maintainer";
      title = "Refined vs lazy maintainer";
      run = Ablations.ab_maintainer;
    };
    { id = "ablation-purist"; title = "SSI everywhere vs hotspots only"; run = Ablations.ab_purist };
    {
      id = "ablation-adaptive";
      title = "Cost-based per-event strategy choice";
      run = Ablations.ab_adaptive;
    };
  ]

let all = paper_exps @ scale_exps @ ablation_exps

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

let run_list scale exps =
  List.iter
    (fun e ->
      let _, dt = Cq_util.Clock.time (fun () -> e.run scale) in
      Printf.printf "  [%s completed in %.1fs]\n%!" e.id dt)
    exps

let run_all scale = run_list scale all
let run_paper scale = run_list scale paper_exps
