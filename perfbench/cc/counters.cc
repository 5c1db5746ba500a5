#include "perfbench/cc/counters.h"

#include <cstring>

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Fnv1a {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::vector<Metric> ResultCounters(const ursa::ExperimentResult& result) {
  const ursa::UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  const ursa::FaultCounters& f = result.faults;
  int64_t completed = 0;
  for (const ursa::JobRecord& record : result.records) {
    completed += record.completed() ? 1 : 0;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  return {
      {"jobs.submitted", "count", d(result.submitted)},
      {"jobs.completed", "count", d(completed)},
      {"sim_makespan_s", "s", result.makespan()},
      {"sim_avg_jct_s", "s", result.avg_jct()},
      {"sim.events", "count", d(result.events_fired)},
      {"scheduler.ticks", "count", d(sc.ticks)},
      {"scheduler.bestworker_calls", "count", d(sc.bestworker_calls)},
      {"scheduler.workers_scanned", "count", d(sc.workers_scanned)},
      {"scheduler.scanned_per_call", "workers", Ratio(d(sc.workers_scanned),
                                                      d(sc.bestworker_calls))},
      {"scheduler.scoring_truncated", "count", d(sc.scoring_truncated)},
      {"ctrl.msgs", "count", d(f.msgs_sent)},
      {"ctrl.retransmits", "count", d(f.retransmits)},
      {"ctrl.fenced", "count", d(f.msgs_fenced)},
      {"ctrl.dup_suppressed", "count", d(f.dup_suppressed)},
      {"ctrl.journal_records", "count", d(f.journal_records)},
      {"ctrl.recovery_s", "s", f.avg_scheduler_recovery_latency()},
      {"fault.tasks_reset", "count", d(f.tasks_reset)},
      {"fault.retries", "count", d(f.retries)},
      {"spec.launched", "count", d(f.speculations_launched)},
      {"spec.won", "count", d(f.speculations_won)},
      {"spec.win_ratio", "ratio", Ratio(d(f.speculations_won), d(f.speculations_launched))},
      {"spec.wasted_s", "s", f.total_wasted_seconds()},
  };
}

uint64_t ResultDigest(const ursa::ExperimentResult& result) {
  Fnv1a h;
  for (const ursa::JobRecord& r : result.records) {
    h.Int(r.id);
    h.String(r.name);
    h.Double(r.submit_time);
    h.Double(r.admit_time);
    h.Double(r.finish_time);
    h.Double(r.cpu_seconds);
    h.Int(r.shed ? 1 : 0);
  }
  const ursa::EfficiencyReport& e = result.efficiency;
  for (const double v : {e.ue_cpu, e.se_cpu, e.ue_mem, e.se_mem, e.cpu_imbalance,
                         e.net_imbalance, result.straggler_ratio}) {
    h.Double(v);
  }
  for (const Metric& m : ResultCounters(result)) {
    h.String(m.name);
    h.Double(m.value);
  }
  return h.value();
}

}  // namespace perfbench
