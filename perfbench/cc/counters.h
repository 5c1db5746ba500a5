// The one adapter between ExperimentResult and the benchmark's report. Every
// counter the benchmark prints or folds into its digest is read here, so a
// change to the result's counter structs (SchedulerCounters, FaultCounters,
// EfficiencyReport) touches this file only.
#ifndef PERFBENCH_CC_COUNTERS_H_
#define PERFBENCH_CC_COUNTERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/experiment.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Simulated results and exact work counters of one run, by report name.
// All of them repeat bit for bit for one seed; none is a host time.
std::vector<Metric> ResultCounters(const ursa::ExperimentResult& result);

// FNV-1a over every job record and every ResultCounters() value, bit
// patterns included. Equal digests mean the runs simulated the same thing.
uint64_t ResultDigest(const ursa::ExperimentResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_CC_COUNTERS_H_
