// Distribution summaries for the benchmark's report. A timing is given as
// its median, its 99th percentile, and the highest percentile that still has
// at least ten samples beyond it, with the sample count, so a tail figure
// never rests on one or two outliers.
#ifndef PERFBENCH_CC_STATS_H_
#define PERFBENCH_CC_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending sample: the value at rank
// ceil(pct/100 * n), counted from 1. Returns 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double pct);

// The highest percentile in {50, 90, 99, 99.9, 99.99} whose nearest-rank
// value leaves at least `kTailMinBeyond` samples above it. Returns 0 when
// even the median does not (fewer than 20 samples).
inline constexpr size_t kTailMinBeyond = 10;
double TailPercentile(size_t n);

struct Distribution {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;  // TailPercentile(n); 0 when n < 20.
  double tail = 0.0;      // Value at tail_pct; 0 when tail_pct is 0.
};

Distribution Describe(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_CC_STATS_H_
