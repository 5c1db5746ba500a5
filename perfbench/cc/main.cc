// One benchmark process: builds a workload from its seed and runs it through
// RunExperiment, writing raw measurements as JSON for run.py to check and
// report.
//
//   perfbench_plain --workload=W --seed=N --seconds=S --out=FILE
//       Untraced: times set-up (workload generation plus plan compilation)
//       kSetupReps times, then repeats the run for about S seconds.
//   perfbench_fp --workload=W --seed=N --traced --out=FILE --samples=FILE
//       Traced: one untraced run, then one run with the Tracer on
//       (trace_sample=1) under the SIGPROF sampler; writes the samples for
//       symbolisation.
//
// Before each RunExperiment call the process prints "started <jobs>" to
// standard output, so run.py can count the jobs of a run that aborts.
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/cc/counters.h"
#include "perfbench/cc/sampler.h"
#include "perfbench/cc/stats.h"
#include "perfbench/cc/workloads.h"
#include "src/obs/trace.h"

namespace {

using perfbench::BenchWorkload;
using perfbench::Distribution;
using perfbench::Metric;

constexpr int kSetupReps = 21;
constexpr int kMinRuns = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::string out;
  std::string samples;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--samples") {
      args->samples = value;
    } else if (arg == "--traced") {
      args->traced = true;
      continue;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
    if (value.empty() || (end != nullptr && *end != '\0')) {
      std::fprintf(stderr, "perfbench: bad value in '%s'\n", arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() &&
         (args->traced ? !args->samples.empty() : args->seconds > 0.0);
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Minimal JSON writer: nested objects of numbers, strings and flat arrays.
// Keys and strings are plain identifiers, so nothing needs escaping.
class Json {
 public:
  explicit Json(std::FILE* out) : out_(out) {}
  void Open(const char* key = nullptr) {
    Key(key);
    std::fputc('{', out_);
    first_ = true;
  }
  void Close() {
    std::fputc('}', out_);
    first_ = false;
  }
  void Num(const char* key, double v) {
    Key(key);
    std::fprintf(out_, "%.17g", v);
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    std::fprintf(out_, "\"%s\"", v.c_str());
  }
  void Nums(const char* key, const std::vector<double>& vs) {
    Key(key);
    std::fputc('[', out_);
    for (size_t i = 0; i < vs.size(); ++i) {
      std::fprintf(out_, i == 0 ? "%.17g" : ",%.17g", vs[i]);
    }
    std::fputc(']', out_);
  }
  void Strs(const char* key, const std::vector<std::string>& vs) {
    Key(key);
    std::fputc('[', out_);
    for (size_t i = 0; i < vs.size(); ++i) {
      std::fprintf(out_, i == 0 ? "\"%s\"" : ",\"%s\"", vs[i].c_str());
    }
    std::fputc(']', out_);
  }
  void Dist(const char* key, const Distribution& d) {
    Open(key);
    Num("n", static_cast<double>(d.n));
    Num("p50", d.p50);
    Num("p99", d.p99);
    Num("tail_pct", d.tail_pct);
    Num("tail", d.tail);
    Close();
  }
  void Counters(const std::vector<Metric>& metrics) {
    Open("counters");
    for (const Metric& m : metrics) {
      Open(m.name.c_str());
      Num("value", m.value);
      Str("unit", m.unit);
      Close();
    }
    Close();
  }

 private:
  void Key(const char* key) {
    if (!first_) {
      std::fputc(',', out_);
    }
    first_ = false;
    if (key != nullptr) {
      std::fprintf(out_, "\"%s\":", key);
    }
  }
  std::FILE* out_;
  bool first_ = true;
};

// Host speed on a shared VM drifts by 10-50% over seconds to minutes, with
// the load that other tenants put on the caches and memory. Each timing is
// therefore paired with this fixed kernel, run right before and after it:
// a dependent random walk over 16 MiB, as cache- and memory-bound as the
// simulator's hash-map lookups, built only from the benchmark's own code so
// no change under src/ moves it. run.py scales each time by
// kNominalSeconds / (kernel time around it).
class ReferenceKernel {
 public:
  // The kernel's time on the 4-vCPU Xeon VM the bounds were set on.
  static constexpr double kNominalSeconds = 0.18;
  static constexpr size_t kSlots = size_t{1} << 22;  // 4-byte slots: 16 MiB.
  static constexpr int kSteps = 1 << 20;

  ReferenceKernel() : next_(kSlots) {
    // Sattolo's algorithm: one cycle through every slot, so the walk never
    // settles into a short, cached loop.
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < kSlots; ++i) {
      next_[i] = static_cast<uint32_t>(i);
    }
    for (size_t i = kSlots - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next_[i], next_[(state >> 33) % i]);
    }
  }

  double Seconds() {
    const double t0 = Now();
    uint32_t slot = 0;
    for (int i = 0; i < kSteps; ++i) {
      slot = next_[slot];
    }
    sink_ = slot;
    return Now() - t0;
  }

  static double ResidentMb() { return kSlots * sizeof(uint32_t) / (1024.0 * 1024.0); }

 private:
  std::vector<uint32_t> next_;
  volatile uint32_t sink_ = 0;
};

// Announces a run's jobs before it starts; see the header comment.
void AnnounceRun(const BenchWorkload& w) {
  std::printf("started %zu\n", w.workload.jobs.size());
  std::fflush(stdout);
}

std::FILE* OpenOut(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  return out;
}

int CloseOut(std::FILE* out) {
  std::fputc('\n', out);
  return std::fclose(out) == 0 ? 0 : 1;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void WriteCommon(Json& j, const Args& args, const BenchWorkload& w,
                 const ursa::ExperimentResult& result) {
  j.Str("workload", args.workload);
  j.Num("seed", static_cast<double>(args.seed));
  j.Str("variant", PERFBENCH_VARIANT);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  j.Str("compiler", PERFBENCH_COMPILER);
  j.Num("clean", w.clean ? 1.0 : 0.0);
  j.Num("plan_monotasks", static_cast<double>(w.plan_monotasks));
  j.Counters(perfbench::ResultCounters(result));
}

// Reduces the trace ring to the per-layer figures: tick spans, modelled
// queue waits and busy time per resource, and completions.
void WriteTrace(Json& j, const ursa::Tracer& tracer, double run_wall_s) {
  constexpr auto kCpu = static_cast<size_t>(ursa::ResourceType::kCpu);
  constexpr auto kNet = static_cast<size_t>(ursa::ResourceType::kNetwork);
  std::vector<double> tick_us;
  std::vector<double> waits[ursa::kNumMonotaskResources];
  double net_bytes = 0.0;
  for (const ursa::TraceEvent& e : tracer.Snapshot()) {
    if (e.kind == ursa::TraceEventKind::kTick) {
      tick_us.push_back(e.wall_us);
    } else if (e.kind == ursa::TraceEventKind::kDispatch && e.resource >= 0) {
      waits[e.resource].push_back(e.b);
    } else if (e.kind == ursa::TraceEventKind::kComplete &&
               e.resource == static_cast<int8_t>(kNet)) {
      net_bytes += e.a;
    }
  }
  const auto summaries = tracer.SummarizeMonotasks();
  double completions = 0.0;
  for (const auto& s : summaries) {
    completions += static_cast<double>(s.completes);
  }
  const ursa::Tracer::TickSummary& ticks = tracer.tick_summary();
  j.Open("trace");
  j.Num("dropped", static_cast<double>(tracer.dropped()));
  j.Num("completions", completions);
  j.Dist("tick_us", perfbench::Describe(std::move(tick_us)));
  j.Num("tick_share", ticks.total_wall_us * 1e-6 / run_wall_s);
  j.Num("placed", static_cast<double>(ticks.placed));
  j.Num("candidates", static_cast<double>(ticks.candidates));
  j.Dist("cpu_queue_wait_s", perfbench::Describe(std::move(waits[kCpu])));
  j.Dist("net_queue_wait_s", perfbench::Describe(std::move(waits[kNet])));
  j.Num("cpu_busy_s", summaries[kCpu].busy_time);
  j.Num("net_busy_s", summaries[kNet].busy_time);
  j.Num("net_flows", static_cast<double>(summaries[kNet].completes));
  j.Num("net_bytes", net_bytes);
  j.Close();
}

int RunUntraced(const Args& args) {
  ReferenceKernel kernel;
  // One kernel time before and one after the set-ups, then one after each
  // run: run i sits between ref_s[i + 1] and ref_s[i + 2].
  std::vector<double> ref_s = {kernel.Seconds()};
  BenchWorkload w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = Now();
    if (!perfbench::MakeBenchWorkload(args.workload, args.seed, &w)) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    setup_s.push_back(Now() - t0);
  }
  ref_s.push_back(kernel.Seconds());
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::string> digests;
  ursa::ExperimentResult result;
  // Repeat while the next run is expected to end within the budget, so a
  // run lasts about --seconds whatever the workload's length.
  const double start = Now();
  while (static_cast<int>(wall_s.size()) < kMinRuns ||
         Now() - start + wall_s.back() <= args.seconds) {
    AnnounceRun(w);
    const double t0 = Now();
    const double cpu0 = CpuSeconds();
    result = ursa::RunExperiment(w.workload, w.config, args.workload);
    wall_s.push_back(Now() - t0);
    cpu_s.push_back(CpuSeconds() - cpu0);
    digests.push_back(Hex(perfbench::ResultDigest(result)));
    ref_s.push_back(kernel.Seconds());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::FILE* out = OpenOut(args.out);
  if (out == nullptr) {
    return 1;
  }
  Json j(out);
  j.Open();
  WriteCommon(j, args, w, result);
  j.Nums("setup_s", setup_s);
  j.Nums("wall_s", wall_s);
  j.Nums("cpu_s", cpu_s);
  j.Nums("ref_s", ref_s);
  j.Num("ref_nominal_s", ReferenceKernel::kNominalSeconds);
  j.Strs("digests", digests);
  // The kernel's array stays resident for the whole process.
  j.Num("peak_rss_mb",
        static_cast<double>(usage.ru_maxrss) / 1024.0 - ReferenceKernel::ResidentMb());
  j.Close();
  return CloseOut(out);
}

int RunTraced(const Args& args) {
  BenchWorkload w;
  if (!perfbench::MakeBenchWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The same build untraced, right before the traced run, so the ratio of
  // the two shows what the Tracer and the sampler cost.
  AnnounceRun(w);
  double t0 = Now();
  const ursa::ExperimentResult untraced =
      ursa::RunExperiment(w.workload, w.config, args.workload);
  const double untraced_wall_s = Now() - t0;

  w.config.trace = true;
  w.config.trace_sample = 1;
  w.config.trace_capacity = size_t{1} << 23;
  // Enough room for two minutes of CPU time at the sampling rate.
  perfbench::Sampler sampler(static_cast<size_t>(perfbench::kSamplerHz) * 120);
  AnnounceRun(w);
  const double cpu0 = CpuSeconds();
  t0 = Now();
  sampler.Start();
  const ursa::ExperimentResult result = ursa::RunExperiment(w.workload, w.config, args.workload);
  sampler.Stop();
  const double wall_s = Now() - t0;
  const double cpu_s = CpuSeconds() - cpu0;
  if (!sampler.Write(args.samples)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.samples.c_str());
    return 1;
  }

  std::FILE* out = OpenOut(args.out);
  if (out == nullptr) {
    return 1;
  }
  Json j(out);
  j.Open();
  WriteCommon(j, args, w, result);
  j.Nums("wall_s", {wall_s});
  j.Num("untraced_wall_s", untraced_wall_s);
  j.Strs("digests",
         {Hex(perfbench::ResultDigest(untraced)), Hex(perfbench::ResultDigest(result))});
  WriteTrace(j, *result.trace, wall_s);
  j.Open("sampler");
  j.Num("hz_requested", perfbench::kSamplerHz);
  j.Num("samples", static_cast<double>(sampler.samples()));
  j.Num("overflowed", static_cast<double>(sampler.overflowed()));
  j.Num("cpu_s", cpu_s);
  j.Close();
  j.Close();
  return CloseOut(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_{plain,fp} --workload=W --seed=N "
                 "(--seconds=S | --traced --samples=FILE) --out=FILE\n");
    return 2;
  }
  return args.traced ? RunTraced(args) : RunUntraced(args);
}
