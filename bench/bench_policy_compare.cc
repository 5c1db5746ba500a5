// Policy-framework comparison bench (DESIGN.md section 13): sweeps every
// registered job-ordering policy (EJF, SRJF, Graphene) plus the alternative
// worker-score policy (Tetris dot-product) and the Hugo-style co-location
// learner over the TPC-H, TPC-DS and mixed workloads, and writes a
// machine-readable summary to --json-out (default BENCH_policy.json).
//
// The ordering contenders come from OrderingPolicyRegistry(), so a policy
// registered in src/scheduler/job_ordering.cc is swept here (and appears in
// the committed BENCH_policy.json) without touching this file.
//
// Assertions (exit 1 on failure):
//   - Graphene must beat both EJF and SRJF on mean JCT on the mixed
//     workload (the DAG-aware ordering earns its keep where DAG shapes are
//     heterogeneous).
//   - Re-running Graphene, Tetris-score and Hugo on the mixed workload with
//     the same seed must reproduce the identical schedule (events, makespan,
//     avg JCT) — the policies stay inside the determinism envelope.
//
// Flags: the table in main(); any unknown flag (--help, say) prints it.
//
// With --baseline, the run fails when its graphene_gain_mixed (the better
// base policy's mean JCT over Graphene's — > 1 means Graphene wins) drops
// more than 20% below the committed baseline's value.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/workloads/mixed.h"
#include "src/workloads/tpcds.h"
#include "src/workloads/tpch.h"

namespace {

using namespace ursa;

struct Options {
  uint64_t seed = 42;
  int jobs = 30;
  std::string json_out = "BENCH_policy.json";
  std::string baseline;
};

struct Contender {
  std::string name;
  ExperimentConfig config;
};

// The swept policy set: every registered ordering policy under the default
// Algorithm-1 score, plus the score-policy and co-location contenders on top
// of SRJF ordering (so their delta isolates the placement change).
std::vector<Contender> MakeContenders() {
  std::vector<Contender> out;
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    out.push_back({info.name, UrsaOrderingConfig(info.policy)});
  }
  Contender tetris{"TETRIS-SCORE", UrsaSrjfConfig()};
  tetris.config.ursa.score = PlacementScoreKind::kTetrisDot;
  out.push_back(std::move(tetris));
  Contender hugo{"HUGO", UrsaSrjfConfig()};
  hugo.config.ursa.colocation.enabled = true;
  out.push_back(std::move(hugo));
  return out;
}

struct Row {
  std::string workload;
  std::string policy;
  double makespan = 0.0;
  double avg_jct = 0.0;
  double ue_cpu = 0.0;
  double se_cpu = 0.0;
  uint64_t events = 0;
  double wall_seconds = 0.0;
};

Row RunRow(const Workload& workload, const Contender& contender) {
  const ExperimentResult result = RunExperiment(workload, contender.config, contender.name);
  Row row;
  row.workload = workload.name;
  row.policy = contender.name;
  row.makespan = result.makespan();
  row.avg_jct = result.avg_jct();
  row.ue_cpu = result.efficiency.ue_cpu;
  row.se_cpu = result.efficiency.se_cpu;
  row.events = result.events_fired;
  row.wall_seconds = result.wall_seconds;
  return row;
}

std::string RowJson(const Row& r) {
  return StrFormat("    {\"workload\": \"%s\", \"policy\": \"%s\", \"makespan\": %.3f, "
                   "\"avg_jct\": %.3f, \"ue_cpu\": %.2f, \"se_cpu\": %.2f, "
                   "\"events\": %llu, \"wall_seconds\": %.3f}",
                   r.workload.c_str(), r.policy.c_str(), r.makespan, r.avg_jct, r.ue_cpu,
                   r.se_cpu, static_cast<unsigned long long>(r.events), r.wall_seconds);
}

const Row* FindRow(const std::vector<Row>& rows, const std::string& workload,
                   const std::string& policy) {
  for (const Row& r : rows) {
    if (r.workload == workload && r.policy == policy) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  FlagTable("bench_policy_compare",
            {{"seed", &opt.seed, "workload seed"},
             {"jobs", &opt.jobs, "TPC-H and TPC-DS jobs per workload", 1},
             {"json-out", &opt.json_out, "summary JSON path"},
             {"baseline", &opt.baseline, "gate graphene_gain_mixed against this JSON"}})
      .Parse(argc, argv);

  TpchWorkloadConfig tpch_config;
  tpch_config.num_jobs = opt.jobs;
  tpch_config.seed = opt.seed;
  TpcdsWorkloadConfig tpcds_config;
  tpcds_config.num_jobs = opt.jobs;
  tpcds_config.seed = opt.seed;
  MixedWorkloadConfig mixed_config;
  mixed_config.seed = opt.seed;
  const std::vector<Workload> workloads = {MakeTpchWorkload(tpch_config),
                                           MakeTpcdsWorkload(tpcds_config),
                                           MakeMixedWorkload(mixed_config)};
  const std::string mixed_name = workloads.back().name;

  const std::vector<Contender> contenders = MakeContenders();
  std::vector<Row> rows;
  Table table({"workload", "policy", "makespan", "avgJCT", "UEcpu", "SEcpu"});
  for (const Workload& workload : workloads) {
    for (const Contender& contender : contenders) {
      std::printf("running %s on %s...\n", contender.name.c_str(), workload.name.c_str());
      std::fflush(stdout);
      rows.push_back(RunRow(workload, contender));
      const Row& r = rows.back();
      table.Row()
          .Cell(r.workload)
          .Cell(r.policy)
          .Cell(r.makespan, 1)
          .Cell(r.avg_jct, 2)
          .Cell(r.ue_cpu)
          .Cell(r.se_cpu);
    }
  }
  table.Print("policy comparison (seed " + std::to_string(opt.seed) + ")");

  bool ok = true;

  // The DAG-aware ordering must earn its keep: on the mixed workload (the
  // heterogeneous-DAG case) Graphene beats both base policies on mean JCT.
  const Row* graphene = FindRow(rows, mixed_name, "GRAPHENE");
  const Row* ejf = FindRow(rows, mixed_name, "EJF");
  const Row* srjf = FindRow(rows, mixed_name, "SRJF");
  double gain = 0.0;
  if (graphene == nullptr || ejf == nullptr || srjf == nullptr) {
    std::fprintf(stderr, "FAIL: missing GRAPHENE/EJF/SRJF rows for %s\n", mixed_name.c_str());
    ok = false;
  } else {
    const double best_base = std::min(ejf->avg_jct, srjf->avg_jct);
    gain = graphene->avg_jct > 0.0 ? best_base / graphene->avg_jct : 0.0;
    std::printf("graphene_gain_mixed (best base JCT / graphene JCT): %.3fx\n", gain);
    if (graphene->avg_jct >= ejf->avg_jct || graphene->avg_jct >= srjf->avg_jct) {
      std::fprintf(stderr,
                   "FAIL: Graphene avg JCT %.2f does not beat EJF %.2f and SRJF %.2f "
                   "on %s\n",
                   graphene->avg_jct, ejf->avg_jct, srjf->avg_jct, mixed_name.c_str());
      ok = false;
    }
  }

  // Determinism: the non-default policies re-run on the mixed workload with
  // the same seed must reproduce the identical schedule.
  for (const Contender& contender : contenders) {
    if (contender.name == "EJF" || contender.name == "SRJF") {
      continue;  // Covered by tests/determinism_test.cc since the seed repo.
    }
    const Row* first = FindRow(rows, mixed_name, contender.name);
    const Row rerun = RunRow(workloads.back(), contender);
    if (first == nullptr || first->events != rerun.events ||
        first->makespan != rerun.makespan || first->avg_jct != rerun.avg_jct) {
      std::fprintf(stderr, "FAIL: %s is not deterministic on %s across same-seed reruns\n",
                   contender.name.c_str(), mixed_name.c_str());
      ok = false;
    }
  }
  if (ok) {
    std::printf("determinism recheck: all non-default policies reproduced exactly\n");
  }

  // Regression gate against the committed baseline: Graphene's mixed-bench
  // win must not silently erode.
  if (!opt.baseline.empty()) {
    ok = BaselineGate(opt.baseline, "graphene_gain_mixed", gain, 0.8, HUGE_VAL) && ok;
  }

  const std::string fields = StrFormat(
      "  \"bench\": \"policy\",\n  \"seed\": %llu,\n  \"jobs\": %d,\n"
      "  \"graphene_gain_mixed\": %.3f,\n",
      static_cast<unsigned long long>(opt.seed), opt.jobs, gain);
  if (!WriteBenchJson(opt.json_out, fields, ok, rows, RowJson)) {
    return 1;
  }
  return ok ? 0 : 1;
}
