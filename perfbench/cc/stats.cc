#include "perfbench/cc/stats.h"

#include <algorithm>
#include <cstdint>

namespace perfbench {

namespace {

// Percentiles in hundredths of a percent, so rank arithmetic stays exact.
constexpr uint64_t kLadder[] = {9999, 9990, 9900, 9000, 5000};

size_t RankOf(size_t n, uint64_t pct_x100) {
  return static_cast<size_t>((pct_x100 * n + 9999) / 10000);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t rank = RankOf(sorted.size(), static_cast<uint64_t>(pct * 100.0 + 0.5));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double TailPercentile(size_t n) {
  for (const uint64_t pct : kLadder) {
    if (n >= kTailMinBeyond && n - RankOf(n, pct) >= kTailMinBeyond) {
      return static_cast<double>(pct) / 100.0;
    }
  }
  return 0.0;
}

Distribution Describe(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Distribution d;
  d.n = samples.size();
  d.p50 = NearestRank(samples, 50.0);
  d.p99 = NearestRank(samples, 99.0);
  d.tail_pct = TailPercentile(d.n);
  d.tail = d.tail_pct > 0.0 ? NearestRank(samples, d.tail_pct) : 0.0;
  return d;
}

}  // namespace perfbench
