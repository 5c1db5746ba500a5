// ursa_sim: command-line driver for the cluster simulator.
//
//   ursa_sim --workload=tpch --scheduler=ursa-ejf --jobs=50 [flags]
//
// The flag table in main() is the reference: any unknown flag (--help, say)
// prints the usage generated from it, one line per flag. An unknown flag, a
// malformed number or an out-of-range value is named on stderr and exits 2
// (the usage exit code), so typos never fall back to defaults
// (tests/ursa_sim_flags.sh).
//
// Prints the paper-style summary (makespan, avg JCT, SE/UE), a fault report
// when chaos was injected, the per-tenant/admission report for open-loop
// runs, and optionally a sampled cluster-utilization series.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/driver/experiment.h"
#include "src/obs/trace.h"
#include "src/workloads/mixed.h"
#include "src/workloads/openloop.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpcds.h"
#include "src/workloads/tpch.h"

namespace {

using namespace ursa;

// Flags that do not land 1:1 in an ExperimentConfig field.
struct Options {
  std::string workload = "tpch";
  std::string scheduler = "ursa-ejf";
  int jobs = 50;
  double interval = 5.0;
  uint64_t seed = 42;
  double gbps = 10.0;
  bool no_lineage = false;
  // One fixed scheduler downtime (the library draws from a range).
  double sched_downtime = 5.0;
  std::string tenants;
  bool sched_counters = false;
  // Enum-valued flags, spelled as the library defaults until set.
  std::string shed_policy = ShedPolicyFlag(AdmissionConfig{}.shed_policy);
  std::string score = PlacementScoreKindName(UrsaSchedulerConfig{}.score);
  std::string graphene_base = OrderingPolicyName(GrapheneConfig{}.base);
};

// Replaces *config with the preset an --scheduler name selects. The ursa-*
// job-ordering variants come from the policy registry (DESIGN.md section 13),
// so new ordering policies show up here without touching this dispatch.
bool SchemeConfig(const std::string& scheduler, ExperimentConfig* config) {
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    if (scheduler == std::string("ursa-") + info.flag) {
      *config = UrsaOrderingConfig(info.policy);
      return true;
    }
  }
  PlacementAlgorithm packing = PlacementAlgorithm::kAlgorithm1;
  if (scheduler == "y+s") {
    *config = SparkLikeConfig();
  } else if (scheduler == "y+t") {
    *config = TezLikeConfig();
  } else if (scheduler == "y+u") {
    *config = MonoSparkConfig();
  } else if (ParsePlacementAlgorithm(scheduler, &packing) &&
             packing != PlacementAlgorithm::kAlgorithm1) {
    // Whole-task packing baselines from the registry (tetris|tetris2|capacity).
    *config = UrsaEjfConfig();
    config->ursa.placement = packing;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  ExperimentConfig config;
  FaultPlanConfig plan;
  UrsaSchedulerConfig& sched = config.ursa;
  const FlagTable flags("ursa_sim", {
      {"workload", &opt.workload, "tpch|tpcds|tpch2|mixed|synthetic|openloop"},
      {"scheduler", &opt.scheduler, "ursa-{ejf,srjf,graphene}|y+{s,t,u}|tetris|tetris2|capacity"},
      {"jobs", &opt.jobs, "jobs to submit (open loop: arrivals)", 1, 10000000},
      {"interval", &opt.interval, "seconds between submissions", 0, 1e9},
      {"seed", &opt.seed, "workload seed"},
      {"workers", &config.cluster.num_workers, "cluster size", 1, 100000},
      {"gbps", &opt.gbps, "link bandwidth per worker, Gbit/s", 1e-3, 1e6},
      {"subscription", &config.cm.cpu_subscription_ratio, "executor CPU ratio", 1e-3, 100},
      {"series", &config.sample_step, "utilization series step, s (0 = off)", 0, 1e9},
      // Tracing (DESIGN.md section 8).
      {"trace", &config.trace, "record a trace and print its summary"},
      {"trace-out", &config.trace_out, "Chrome trace JSON path"},
      {"trace-sample", &config.trace_sample, "trace every Nth monotask", 1, 1000000},
      {"trace-capacity", &config.trace_capacity, "trace ring capacity, events", 1},
      // Worker chaos (DESIGN.md section 7; Ursa schemes only).
      {"fault-crashes", &plan.crashes, "permanent worker crashes", 0, 100000},
      {"fault-recovers", &plan.crash_recovers, "worker crash-recover cycles", 0, 100000},
      {"fault-transients", &plan.transients, "transient monotask failures", 0, 100000},
      {"fault-degrades", &plan.degrades, "worker slowdown windows", 0, 100000},
      {"fault-seed", &plan.seed, "fault plan and message fault seed"},
      {"fault-horizon", &plan.horizon_end, "faults strike before this time, s", 1e-9, 1e9},
      {"detect-timeout", &sched.fault.detector.detect_timeout, "failure detection, s", 1e-9, 1e9},
      {"heartbeat", &sched.fault.detector.heartbeat_interval, "heartbeat interval, s", 1e-9, 1e9},
      {"no-lineage", &opt.no_lineage, "recover by restarting jobs, not by lineage"},
      {"retry-attempts", &sched.fault.max_monotask_attempts, "attempts per monotask", 1, 1000},
      // Control plane (DESIGN.md section 14). Any chaos knob implies --ctrl.
      {"ctrl", &sched.ctrl.enabled, "scheduler<->worker message layer"},
      {"msg-loss", &sched.ctrl.loss_prob, "message loss probability", 0, 0.999},
      {"msg-dup", &sched.ctrl.dup_prob, "message duplication probability", 0, 0.999},
      {"msg-delay", &sched.ctrl.delay_prob, "message delay probability", 0, 0.999},
      {"msg-delay-extra", &sched.ctrl.delay_extra, "latency of a delay, s", 0, 1e6},
      {"msg-latency", &sched.ctrl.base_latency, "base message latency, s", 0, 1e6},
      {"sched-crash", &plan.sched_crash_recovers, "scheduler crash-recover cycles", 0, 100000},
      {"sched-downtime", &opt.sched_downtime, "scheduler downtime, s", 0, 1e9},
      {"checkpoint-interval", &sched.ctrl.checkpoint_interval, "journal checkpoints, s", 0, 1e9},
      // Straggler mitigation (DESIGN.md section 9; Ursa schemes only).
      {"spec", &sched.spec.enabled, "speculative copies of stragglers"},
      {"spec-threshold", &sched.spec.slowdown_threshold, "straggler slowdown", 1, 1e3},
      {"spec-budget", &sched.spec.budget_fraction, "copies per running task", 0, 1},
      {"spec-min-runtime", &sched.spec.min_runtime, "runtime before a copy, s", 0, 1e9},
      // Open-loop serving and admission control (DESIGN.md section 11).
      {"open-loop", &config.open_loop.enabled, "continuous arrivals"},
      {"arrival-rate", &config.open_loop.arrival_rate, "Poisson arrivals/s", 1e-9, 1e9},
      {"arrival-trace", &config.open_loop.trace_file, "inter-arrival gap file"},
      {"tenants", &opt.tenants, "name:weight:tier:slo,..."},
      {"admission", &sched.admission.enabled, "SLO-aware admission control"},
      {"max-pending", &sched.admission.max_pending, "admission queue bound", 1, 10000000},
      {"shed-policy", &opt.shed_policy, "newest|largest|tier"},
      {"slo", &sched.admission.default_slo, "default job SLO, s", 1e-9, 1e9},
      {"u-bound", &sched.admission.utilization_bound, "utilization bound", 1e-9, 1e9},
      // Hot path (DESIGN.md section 12) and policies (section 13).
      {"max-scored-pairs", &sched.max_scored_pairs_per_tick, "pairs scored per tick", 1, 2e9},
      {"sched-counters", &opt.sched_counters, "print placement work counters"},
      {"score", &opt.score, "alg1|tetris"},
      {"colocate", &sched.colocation.enabled, "Hugo-style co-location learning"},
      {"colocate-weight", &sched.colocation.weight, "co-location bonus weight", 0, 1e6},
      {"graphene-threshold", &sched.graphene.threshold, "troublesome threshold", 0, 1},
      {"graphene-weight", &sched.graphene.stage_weight, "troublesome bonus", 0, 1e9},
      {"graphene-base", &opt.graphene_base, "ejf|srjf"},
  });
  // --scheduler picks the preset every other flag edits: the first pass
  // validates all flags and resolves it, the second applies them on top.
  flags.Parse(argc, argv);
  if (!SchemeConfig(opt.scheduler, &config)) {
    flags.Fail("unknown scheduler '" + opt.scheduler + "'");
  }
  flags.Parse(argc, argv);
  if (opt.workload == "openloop") {
    config.open_loop.enabled = true;
  }

  // Workload (ignored by open-loop runs: arrivals come from the source).
  Workload workload;
  if (config.open_loop.enabled) {
    workload.name = "openloop";
  } else if (opt.workload == "tpch") {
    workload = MakeTpchWorkload({opt.jobs, opt.interval, opt.seed});
  } else if (opt.workload == "tpcds") {
    workload = MakeTpcdsWorkload({opt.jobs, opt.interval, opt.seed});
  } else if (opt.workload == "tpch2") {
    workload = MakeTpch2Workload(opt.seed);
  } else if (opt.workload == "mixed") {
    workload = MakeMixedWorkload({.seed = opt.seed});
  } else if (opt.workload == "synthetic") {
    workload = MakeSyntheticMixedWorkload(std::max(1, opt.jobs / 2), opt.seed);
  } else {
    flags.Fail("unknown workload '" + opt.workload + "'");
  }

  config.cluster.uplink_bytes_per_sec = GbpsToBytesPerSec(opt.gbps);
  config.cluster.downlink_bytes_per_sec = GbpsToBytesPerSec(opt.gbps);
  if (config.open_loop.enabled) {
    config.open_loop.seed = opt.seed;
    config.open_loop.max_jobs = opt.jobs;
    std::vector<double> gaps;
    std::string error;
    if (!config.open_loop.trace_file.empty() &&
        !LoadInterarrivalTrace(config.open_loop.trace_file, &gaps, &error)) {
      flags.Fail("--arrival-trace: " + error);
    }
    if (!opt.tenants.empty() &&
        !ParseTenantSpecs(opt.tenants, &config.open_loop.tenants, &error)) {
      flags.Fail("--tenants: " + error);
    }
  }
  if (!ParseShedPolicy(opt.shed_policy, &sched.admission.shed_policy)) {
    flags.Fail("--shed-policy rejects '" + opt.shed_policy + "' (want newest|largest|tier)");
  }
  if (!ParsePlacementScoreKind(opt.score, &sched.score)) {
    flags.Fail("--score rejects '" + opt.score + "' (want alg1|tetris)");
  }
  if (!ParseOrderingPolicy(opt.graphene_base, &sched.graphene.base) ||
      sched.graphene.base == OrderingPolicy::kGraphene) {
    flags.Fail("--graphene-base rejects '" + opt.graphene_base + "' (want ejf|srjf)");
  }
  sched.fault.enable_lineage_recovery = !opt.no_lineage;
  // Any control-plane chaos knob implies the message layer; with none of
  // them it stays off and seeded runs match the direct-call path.
  sched.ctrl.enabled = sched.ctrl.enabled || sched.ctrl.loss_prob > 0.0 ||
                       sched.ctrl.dup_prob > 0.0 || sched.ctrl.delay_prob > 0.0 ||
                       plan.sched_crash_recovers > 0 || sched.ctrl.checkpoint_interval > 0.0;
  sched.ctrl.seed = plan.seed;
  if (plan.crashes + plan.crash_recovers + plan.transients + plan.degrades +
          plan.sched_crash_recovers >
      0) {
    plan.num_workers = config.cluster.num_workers;
    plan.min_sched_downtime = opt.sched_downtime;
    plan.max_sched_downtime = opt.sched_downtime;
    config.fault_plan = MakeRandomFaultPlan(plan);
  }

  const ExperimentResult result = RunExperiment(workload, config, opt.scheduler);

  Table table({"scheme", "jobs", "makespan", "avgJCT", "UEcpu", "SEcpu", "UEmem", "SEmem",
               "straggler%"});
  table.Row()
      .Cell(opt.scheduler)
      .Cell(static_cast<int64_t>(result.records.size()))
      .Cell(result.makespan(), 1)
      .Cell(result.avg_jct(), 2)
      .Cell(result.efficiency.ue_cpu)
      .Cell(result.efficiency.se_cpu)
      .Cell(result.efficiency.ue_mem)
      .Cell(result.efficiency.se_mem)
      .Cell(result.straggler_ratio, 2);
  table.Print(opt.workload + " on " + std::to_string(config.cluster.num_workers) + " workers");
  MetricsCollector::PrintFaultReport(result.faults, opt.scheduler);
  if (config.open_loop.enabled) {
    MetricsCollector::PrintTenantReport(result.tenants, opt.scheduler + " tenants");
  }
  if (sched.admission.enabled) {
    const AdmissionCounters& c = result.admission;
    std::printf(
        "admission: submitted=%lld admitted=%lld shed=%lld (slo=%lld evicted=%lld) "
        "deferrals=%lld maxPending=%d avgLatency=%.3fs level=%s\n",
        static_cast<long long>(c.submitted), static_cast<long long>(c.admitted),
        static_cast<long long>(c.shed), static_cast<long long>(c.slo_rejects),
        static_cast<long long>(c.evictions), static_cast<long long>(c.deferrals),
        c.max_pending_depth, c.avg_admission_latency(), BackpressureLevelName(c.level));
  }
  if (opt.sched_counters) {
    const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
    std::printf(
        "sched: ticks=%lld loadRefreshes=%lld fullRebuilds=%lld bestWorker=%lld "
        "workersScanned=%lld truncated=%lld events=%llu wall=%.3fs\n",
        static_cast<long long>(sc.ticks), static_cast<long long>(sc.load_refreshes),
        static_cast<long long>(sc.full_rebuilds), static_cast<long long>(sc.bestworker_calls),
        static_cast<long long>(sc.workers_scanned),
        static_cast<long long>(sc.scoring_truncated),
        static_cast<unsigned long long>(result.events_fired), result.wall_seconds);
  }
  if (result.trace != nullptr) {
    result.trace->PrintSummary(opt.scheduler);
    if (!config.trace_out.empty()) {
      std::printf("trace written to %s\n", config.trace_out.c_str());
    }
  }

  if (config.sample_step > 0.0) {
    PrintSeriesCsv(opt.scheduler, result.series.t0, result.series.step, result.series.cpu,
                   result.series.mem, result.series.net);
  }
  return 0;
}
