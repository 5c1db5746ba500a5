// The benchmark's four workloads. Each one is a seeded closed batch whose jobs
// are submitted on a fixed simulated schedule, and each one loads a different
// layer of the simulator (README.md, "Workloads"):
//
//   tpcds-20w       shuffle metadata (MetadataStore / UsageEstimator)
//   shuffle-3kw     flow solver (FlowSimulator)
//   place-3kw       placement, event queue and worker queues
//   chaos-tpch-20w  control plane, fault recovery and speculation
//
// The seed jitters the submit times and each synthetic job's task bytes of
// the three clean workloads, and drives the message faults of
// chaos-tpch-20w. The job mix, the TPC jobs' data and the fault plan are
// fixed, so the amount of work, and with it host time and the simulated
// results, stays within a few percent across seeds.
#ifndef PERFBENCH_CC_WORKLOADS_H_
#define PERFBENCH_CC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/driver/experiment.h"
#include "src/workloads/workload.h"

namespace perfbench {

struct BenchWorkload {
  ursa::Workload workload;
  ursa::ExperimentConfig config;
  // No faults and the control plane off: every plan monotask completes
  // exactly once, which the benchmark checks against the trace.
  bool clean = true;
  // Sum over jobs of Job::Create(spec)->plan.monotasks().size(); excludes
  // retries and speculative copies.
  int64_t plan_monotasks = 0;
};

// Builds workload `name` for `seed` and compiles every job's plan to count
// its monotasks. Returns false for an unknown name.
bool MakeBenchWorkload(const std::string& name, uint64_t seed, BenchWorkload* out);

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORKLOADS_H_
