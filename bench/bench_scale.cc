// Scheduler-core scaling benchmark (DESIGN.md section 12): a worker-count
// sweep measuring simulator throughput (events/sec), placement throughput
// (placements/sec), p99/max per-tick wall latency and the exact placement
// work counters of the hot path (incremental load cache + bucketed
// BestWorker scan).
//
// The workload is placement-stress by design: many single-stage CPU-only
// jobs with wide fan-out, so the scheduler's per-task worker scan dominates
// rather than the shuffle/flow machinery.
//
// Default (CI smoke): {100, 300} workers, plus a second 300-worker run with
// the verify_hot_path oracle on (every load refresh checked against a full
// rescan, every bucketed BestWorker answer against the linear scan); the two
// 300-worker runs must agree on placements, events, makespan, avg JCT and
// both scan counters. --full extends the sweep to {1000, 3000, 10000}
// workers — the 10k-worker point must run >= 1M monotasks. A
// machine-readable summary is written to --json-out (default
// BENCH_scale.json) with the gated counters as flat top-level keys.
//
// Flags: the table in main(); any unknown flag (--help, say) prints it.
//
// With --baseline, the run fails (exit 1) unless, at 300 workers, `events`
// and `placed` equal the baseline's and `workers_scanned` and
// `full_rebuilds` are at most 1.2x the baseline's; with --full also
// `scanned_per_call_10k` (workers_scanned / bestworker_calls at 10k workers)
// must be at most 1.2x the baseline's. These are exact work counters, so the
// gate is machine-independent; wall-clock regressions are gated by the
// place-3kw workload of the repository benchmark (BENCHMARK.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/workloads/synthetic.h"

namespace {

using namespace ursa;

struct Options {
  uint64_t seed = 42;
  bool full = false;
  std::string json_out = "BENCH_scale.json";
  std::string baseline;
};

struct Row {
  std::string mode;  // "default" | "verify" (verify_hot_path on)
  int workers = 0;
  int jobs = 0;
  int64_t monotasks = 0;
  uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  int64_t placed = 0;
  double placements_per_sec = 0.0;
  double p99_tick_ms = 0.0;
  double max_tick_ms = 0.0;
  int64_t ticks = 0;
  int64_t full_rebuilds = 0;
  int64_t load_refreshes = 0;
  int64_t bestworker_calls = 0;
  int64_t workers_scanned = 0;
  int64_t scoring_truncated = 0;
  double makespan = 0.0;
  double avg_jct = 0.0;
};

// Placement-stress workload: `workers`/4 single-stage CPU jobs of 512 tasks
// each, closely staggered. Task count scales linearly with the cluster so
// per-worker load stays constant across sweep points.
Workload MakeScaleWorkload(int workers, uint64_t seed, int* out_jobs) {
  const int jobs = std::max(4, workers / 4);
  *out_jobs = jobs;
  Workload workload;
  workload.name = "scale-" + std::to_string(workers);
  for (int i = 0; i < jobs; ++i) {
    SyntheticJobParams params;
    params.type = i % 2 == 0 ? 1 : 2;
    params.stages = 1;  // CPU-only: no shuffle, placement dominates.
    params.parallelism = 512;
    params.type1_task_bytes = 24.0 * 1024 * 1024;
    params.complexity = 4.0;
    WorkloadJob wj;
    wj.spec = BuildSyntheticJob(params, seed + static_cast<uint64_t>(i) * 7919);
    wj.spec.name += "-" + std::to_string(i);
    wj.submit_time = 0.25 * i;
    workload.jobs.push_back(std::move(wj));
  }
  return workload;
}

Row RunRow(const Options& opt, const std::string& mode, int workers) {
  Row row;
  row.mode = mode;
  row.workers = workers;
  const Workload workload = MakeScaleWorkload(workers, opt.seed, &row.jobs);
  // Every synthetic job here has the same structure, so one compiled plan
  // gives the per-job monotask count.
  row.monotasks = static_cast<int64_t>(
                      Job::Create(0, workload.jobs.front().spec)->plan.monotasks().size()) *
                  row.jobs;

  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = workers;
  config.ursa.verify_hot_path = mode == "verify";
  // The candidate budget is a liveness safety valve, not part of the
  // algorithm; lift it so every candidate is scored and the sweep measures
  // the scan itself.
  config.ursa.max_scored_pairs_per_tick = size_t{1} << 40;
  config.time_limit = 5e6;
  // Tracing captures per-tick wall latency; monotask events are sampled out
  // so the ring retains every tick even on the million-monotask points.
  config.trace = true;
  config.trace_sample = 1 << 20;
  config.trace_capacity = size_t{1} << 22;

  const ExperimentResult result = RunExperiment(workload, config, mode);
  row.events = result.events_fired;
  row.wall_seconds = result.wall_seconds;
  row.events_per_sec =
      row.wall_seconds > 0.0 ? static_cast<double>(row.events) / row.wall_seconds : 0.0;
  row.makespan = result.makespan();
  row.avg_jct = result.avg_jct();
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  row.ticks = sc.ticks;
  row.full_rebuilds = sc.full_rebuilds;
  row.load_refreshes = sc.load_refreshes;
  row.bestworker_calls = sc.bestworker_calls;
  row.workers_scanned = sc.workers_scanned;
  row.scoring_truncated = sc.scoring_truncated;
  const Tracer::TickSummary& ticks = result.trace->tick_summary();
  row.placed = ticks.placed;
  row.placements_per_sec =
      row.wall_seconds > 0.0 ? static_cast<double>(row.placed) / row.wall_seconds : 0.0;
  row.max_tick_ms = ticks.max_wall_us / 1e3;
  std::vector<double> tick_us;
  for (const TraceEvent& event : result.trace->Snapshot()) {
    if (event.kind == TraceEventKind::kTick) {
      tick_us.push_back(event.wall_us);
    }
  }
  if (!tick_us.empty()) {
    std::sort(tick_us.begin(), tick_us.end());
    const size_t idx =
        std::min(tick_us.size() - 1,
                 static_cast<size_t>(0.99 * static_cast<double>(tick_us.size())));
    row.p99_tick_ms = tick_us[idx] / 1e3;
  }
  return row;
}

std::string RowJson(const Row& r) {
  return StrFormat("    {\"mode\": \"%s\", \"workers\": %d, \"jobs\": %d, "
                   "\"monotasks\": %lld, \"events\": %llu, \"wall_seconds\": %.3f, "
                   "\"events_per_sec\": %.1f, \"placed\": %lld, "
                   "\"placements_per_sec\": %.1f, \"p99_tick_ms\": %.3f, "
                   "\"max_tick_ms\": %.3f, \"ticks\": %lld, \"full_rebuilds\": %lld, "
                   "\"load_refreshes\": %lld, \"bestworker_calls\": %lld, "
                   "\"workers_scanned\": %lld, \"scoring_truncated\": %lld, "
                   "\"makespan\": %.3f, \"avg_jct\": %.3f}",
                   r.mode.c_str(), r.workers, r.jobs, static_cast<long long>(r.monotasks),
                   static_cast<unsigned long long>(r.events), r.wall_seconds,
                   r.events_per_sec, static_cast<long long>(r.placed), r.placements_per_sec,
                   r.p99_tick_ms, r.max_tick_ms, static_cast<long long>(r.ticks),
                   static_cast<long long>(r.full_rebuilds),
                   static_cast<long long>(r.load_refreshes),
                   static_cast<long long>(r.bestworker_calls),
                   static_cast<long long>(r.workers_scanned),
                   static_cast<long long>(r.scoring_truncated), r.makespan, r.avg_jct);
}

const Row* FindRow(const std::vector<Row>& rows, const char* mode, int workers) {
  for (const Row& r : rows) {
    if (r.mode == mode && r.workers == workers) {
      return &r;
    }
  }
  return nullptr;
}

double ScannedPerCall(const Row& r) {
  return r.bestworker_calls > 0
             ? static_cast<double>(r.workers_scanned) / static_cast<double>(r.bestworker_calls)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  FlagTable("bench_scale",
            {{"seed", &opt.seed, "workload seed"},
             {"full", &opt.full, "extend the sweep to 1k, 3k and 10k workers"},
             {"json-out", &opt.json_out, "summary JSON path"},
             {"baseline", &opt.baseline, "gate the work counters against this JSON"}})
      .Parse(argc, argv);

  struct Point {
    const char* mode;
    int workers;
  };
  std::vector<Point> sweep = {{"default", 100}, {"default", 300}, {"verify", 300}};
  if (opt.full) {
    sweep.push_back({"default", 1000});
    sweep.push_back({"default", 3000});
    sweep.push_back({"default", 10000});
  }

  std::vector<Row> rows;
  Table table({"mode", "workers", "monotasks", "events", "wall s", "events/s",
               "placements/s", "p99 tick ms", "scanned", "scanned/call"});
  for (const Point& point : sweep) {
    std::printf("running %s @ %d workers...\n", point.mode, point.workers);
    std::fflush(stdout);
    rows.push_back(RunRow(opt, point.mode, point.workers));
    const Row& r = rows.back();
    table.Row()
        .Cell(r.mode)
        .Cell(static_cast<int64_t>(r.workers))
        .Cell(r.monotasks)
        .Cell(static_cast<int64_t>(r.events))
        .Cell(r.wall_seconds, 2)
        .Cell(r.events_per_sec, 0)
        .Cell(r.placements_per_sec, 0)
        .Cell(r.p99_tick_ms, 3)
        .Cell(r.workers_scanned)
        .Cell(ScannedPerCall(r), 2);
  }
  table.Print("scheduler-core scaling sweep (seed " + std::to_string(opt.seed) + ")");

  bool ok = true;
  // Oracle equivalence: the verify_hot_path run CHECKs every refresh and
  // every bucketed answer against the full-rescan reference; on top of
  // that it must leave the schedule and the scan counters untouched.
  const Row* run300 = FindRow(rows, "default", 300);
  const Row* verify300 = FindRow(rows, "verify", 300);
  if (run300->placed != verify300->placed || run300->events != verify300->events ||
      run300->makespan != verify300->makespan || run300->avg_jct != verify300->avg_jct ||
      run300->bestworker_calls != verify300->bestworker_calls ||
      run300->workers_scanned != verify300->workers_scanned) {
    std::fprintf(stderr,
                 "FAIL: the verify_hot_path run diverged at 300 workers "
                 "(placed %lld/%lld, events %llu/%llu, makespan %.6f/%.6f, "
                 "scanned %lld/%lld)\n",
                 static_cast<long long>(run300->placed),
                 static_cast<long long>(verify300->placed),
                 static_cast<unsigned long long>(run300->events),
                 static_cast<unsigned long long>(verify300->events), run300->makespan,
                 verify300->makespan, static_cast<long long>(run300->workers_scanned),
                 static_cast<long long>(verify300->workers_scanned));
    ok = false;
  }

  const Row* run10k = FindRow(rows, "default", 10000);
  if (run10k != nullptr) {
    std::printf("scanned_per_call_10k: %.3f (10k run: %lld monotasks)\n",
                ScannedPerCall(*run10k), static_cast<long long>(run10k->monotasks));
    if (run10k->monotasks < 1000000) {
      std::fprintf(stderr, "FAIL: 10k-worker point ran %lld monotasks (< 1M)\n",
                   static_cast<long long>(run10k->monotasks));
      ok = false;
    }
  }

  // Regression gate on exact work counters: identical schedule, and no
  // more than 20% extra scan or rebuild work than the committed baseline.
  if (!opt.baseline.empty()) {
    const std::string& base = opt.baseline;
    ok = BaselineGate(base, "events_300", static_cast<double>(run300->events), 1, 1) && ok;
    ok = BaselineGate(base, "placed_300", static_cast<double>(run300->placed), 1, 1) && ok;
    ok = BaselineGate(base, "workers_scanned_300",
                      static_cast<double>(run300->workers_scanned), 0, 1.2) && ok;
    ok = BaselineGate(base, "full_rebuilds_300", static_cast<double>(run300->full_rebuilds),
                      0, 1.2) && ok;
    if (run10k != nullptr) {
      ok = BaselineGate(base, "scanned_per_call_10k", ScannedPerCall(*run10k), 0, 1.2) && ok;
    }
  }

  std::string fields = StrFormat(
      "  \"bench\": \"scale\",\n  \"seed\": %llu,\n  \"full\": %s,\n"
      "  \"events_300\": %llu,\n  \"placed_300\": %lld,\n"
      "  \"workers_scanned_300\": %lld,\n  \"full_rebuilds_300\": %lld,\n",
      static_cast<unsigned long long>(opt.seed), opt.full ? "true" : "false",
      static_cast<unsigned long long>(run300->events), static_cast<long long>(run300->placed),
      static_cast<long long>(run300->workers_scanned),
      static_cast<long long>(run300->full_rebuilds));
  if (run10k != nullptr) {
    fields += StrFormat("  \"scanned_per_call_10k\": %.3f,\n", ScannedPerCall(*run10k));
  }
  if (!WriteBenchJson(opt.json_out, fields, ok, rows, RowJson)) {
    return 1;
  }
  return ok ? 0 : 1;
}
