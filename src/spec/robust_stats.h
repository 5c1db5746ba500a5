// Robust running statistics for straggler detection (DESIGN.md section 9).
//
// A RobustSample keeps a sorted multiset of observed durations and answers
// median and MAD (median absolute deviation) queries. Median + MAD are the
// LATE-style robust alternative to mean + stddev: a handful of genuinely
// slow tasks shifts neither, so the detection threshold tracks the healthy
// population instead of chasing the outliers it is trying to flag.
//
// The detector asks for the MAD of every placed task's stage on every
// scheduler tick, while samples arrive only as tasks complete. So Mad() is
// cached: the first query after an Add recomputes it, and later queries
// return the cached value.
#ifndef SRC_SPEC_ROBUST_STATS_H_
#define SRC_SPEC_ROBUST_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ursa {

class RobustSample {
 public:
  void Add(double value) {
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), value);
    sorted_.insert(it, value);
    mad_valid_ = false;
  }

  size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  double Median() const { return MedianOf(sorted_); }

  // Median of |x - median(x)|. Zero until there are at least two samples.
  double Mad() const {
    if (!mad_valid_) {
      mad_ = ComputeMad();
      mad_valid_ = true;
    }
    return mad_;
  }

 private:
  // The deviations of the samples below the median, read downward from it,
  // and of the rest, read upward, are two ascending runs; merging them up
  // to the middle finds the median deviation in O(n) without a sort.
  double ComputeMad() const {
    const size_t n = sorted_.size();
    if (n < 2) {
      return 0.0;
    }
    const double median = Median();
    size_t up = static_cast<size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), median) - sorted_.begin());
    size_t down = up;  // sorted_[down - 1] is the next sample below the median.
    auto next = [&] {
      if (down > 0 && (up == n || median - sorted_[down - 1] <= sorted_[up] - median)) {
        return median - sorted_[--down];
      }
      return sorted_[up++] - median;
    };
    for (size_t i = 0; i + 1 < (n + 1) / 2; ++i) {
      next();
    }
    const double lower = next();
    return n % 2 == 1 ? lower : 0.5 * (lower + next());
  }

  static double MedianOf(const std::vector<double>& sorted) {
    if (sorted.empty()) {
      return 0.0;
    }
    const size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }

  std::vector<double> sorted_;
  mutable double mad_ = 0.0;
  mutable bool mad_valid_ = true;  // The MAD of no samples is 0.
};

}  // namespace ursa

#endif  // SRC_SPEC_ROBUST_STATS_H_
