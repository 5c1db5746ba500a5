// Tests of the benchmark's own logic: the percentile rule and the
// simulated-results digest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "perfbench/cc/counters.h"
#include "perfbench/cc/stats.h"
#include "src/driver/experiment.h"
#include "src/workloads/synthetic.h"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);  // Median rank 10 leaves 9 above.
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
}

TEST(TailPercentile, AlwaysLeavesTenSamplesBeyond) {
  for (size_t n = 1; n < 30000; n += 7) {
    const double pct = TailPercentile(n);
    if (pct == 0.0) {
      continue;
    }
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<double>(i));
    }
    const double value = NearestRank(v, pct);
    EXPECT_GE(static_cast<double>(n) - 1.0 - value, static_cast<double>(kTailMinBeyond))
        << "n=" << n << " pct=" << pct;
  }
}

TEST(Describe, NearestRankAndSampleCount) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(i);
  }
  const Distribution d = Describe(v);
  EXPECT_EQ(d.n, 1000u);
  EXPECT_EQ(d.p50, 500.0);
  EXPECT_EQ(d.p99, 990.0);
  EXPECT_EQ(d.tail_pct, 99.0);
  EXPECT_EQ(d.tail, 990.0);
  const Distribution empty = Describe({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.tail_pct, 0.0);
  EXPECT_EQ(empty.tail, 0.0);
}

ursa::ExperimentResult RunTiny(uint64_t seed, bool trace = false) {
  ursa::Workload workload;
  for (int i = 0; i < 3; ++i) {
    ursa::SyntheticJobParams params;
    params.stages = 2;
    params.parallelism = 16;
    params.type1_task_bytes = static_cast<double>(8 + seed) * 1024 * 1024;
    ursa::WorkloadJob job;
    job.spec = ursa::BuildSyntheticJob(params, seed + static_cast<uint64_t>(i));
    job.submit_time = 0.5 * i;
    workload.jobs.push_back(std::move(job));
  }
  ursa::ExperimentConfig config = ursa::UrsaEjfConfig();
  config.cluster.num_workers = 4;
  config.trace = trace;
  return ursa::RunExperiment(workload, config, "tiny");
}

TEST(ResultDigest, StableAcrossRepeatsAndTracing) {
  const uint64_t first = ResultDigest(RunTiny(5));
  EXPECT_EQ(ResultDigest(RunTiny(5)), first);
  EXPECT_EQ(ResultDigest(RunTiny(5, /*trace=*/true)), first);
  EXPECT_NE(ResultDigest(RunTiny(6)), first);
}

TEST(ResultDigest, SeesEveryRecordAndCounter) {
  const ursa::ExperimentResult base = RunTiny(5);
  const uint64_t digest = ResultDigest(base);

  ursa::ExperimentResult moved = base;
  moved.records.back().finish_time =
      std::nextafter(moved.records.back().finish_time, 1e300);
  EXPECT_NE(ResultDigest(moved), digest);

  ursa::ExperimentResult counted = base;
  ++counted.scheduler_counters.workers_scanned;
  EXPECT_NE(ResultDigest(counted), digest);

  ursa::ExperimentResult faulted = base;
  ++faulted.faults.msgs_sent;
  EXPECT_NE(ResultDigest(faulted), digest);

  // Host time is not a simulated result.
  ursa::ExperimentResult slower = base;
  slower.wall_seconds += 1.0;
  EXPECT_EQ(ResultDigest(slower), digest);
}

}  // namespace
}  // namespace perfbench
