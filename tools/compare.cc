// Runs one TPC-H batch under the Ursa and executor-model schemes and prints a
// comparison table. Usage: compare [--jobs=N] (default 60).
#include <cstdio>
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/driver/experiment.h"
#include "src/workloads/tpch.h"

using namespace ursa;

int main(int argc, char** argv) {
  int jobs = 60;
  FlagTable("compare", {{"jobs", &jobs, "TPC-H jobs to run under each scheme", 1}})
      .Parse(argc, argv);
  TpchWorkloadConfig wc; wc.num_jobs = jobs; wc.seed = 42;
  Workload w = MakeTpchWorkload(wc);
  Table t({"scheme", "makespan", "avgJCT", "UEcpu", "SEcpu", "UEmem", "SEmem", "imb"});
  for (auto& [name, cfg] : std::vector<std::pair<std::string, ExperimentConfig>>{
        {"Ursa-EJF", UrsaEjfConfig()}, {"Ursa-SRJF", UrsaSrjfConfig()},
        {"Y+S", SparkLikeConfig()}, {"Y+T", TezLikeConfig()}, {"Y+U", MonoSparkConfig()}}) {
    auto r = RunExperiment(w, cfg, name);
    t.Row().Cell(name).Cell(r.makespan(), 0).Cell(r.avg_jct(), 1)
     .Cell(r.efficiency.ue_cpu).Cell(r.efficiency.se_cpu)
     .Cell(r.efficiency.ue_mem).Cell(r.efficiency.se_mem)
     .Cell(r.efficiency.cpu_imbalance);
    fflush(stdout);
  }
  t.Print("TPC-H comparison");
  return 0;
}
