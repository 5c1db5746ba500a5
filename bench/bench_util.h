// Shared helpers for the experiment benches: run a workload under several
// schemes and print the paper-style table plus (optionally) utilization
// series in CSV form.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/driver/experiment.h"
#include "src/obs/trace.h"

namespace ursa {

struct SchemeRun {
  std::string name;
  ExperimentConfig config;
};

// Tracing options shared by the bench binaries; filled from the standard
// --trace-out=FILE / --trace-sample=N / --trace-capacity=EVENTS flags.
struct BenchTraceOptions {
  std::string out;  // Chrome trace JSON path ("" = tracing off).
  int sample = 1;
  size_t capacity = size_t{1} << 20;
  bool enabled() const { return !out.empty(); }
};

// Parses a bench's argv, which takes only the trace flags; exits 2 on any
// other argument.
inline void ParseBenchTraceFlags(const char* program, int argc, char** argv,
                                 BenchTraceOptions* opts) {
  FlagTable(program,
            {{"trace-out", &opts->out, "write one Chrome trace per scheme (FILE-<scheme>)"},
             {"trace-sample", &opts->sample, "trace every Nth monotask", 1},
             {"trace-capacity", &opts->capacity, "trace ring capacity, events", 1}})
      .Parse(argc, argv);
}

// printf into a std::string (the benches' JSON emitters).
__attribute__((format(printf, 1, 2))) inline std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  std::string out(static_cast<size_t>(std::vsnprintf(nullptr, 0, fmt, args)), '\0');
  va_end(args);
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

// Writes a bench's JSON summary (--json-out); false, after naming the file
// on stderr, when it cannot be written.
inline bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

// Writes the summary layout shared by the gated benches: `fields` (whole
// `  "key": value,` lines), the pass flag, then one `row_json(row)` object
// per row, and reports the file on stdout.
template <typename Row, typename RowJson>
bool WriteBenchJson(const std::string& path, const std::string& fields, bool ok,
                    const std::vector<Row>& rows, RowJson row_json) {
  std::string json = "{\n" + fields + "  \"pass\": " + (ok ? "true" : "false") +
                     ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += row_json(rows[i]) + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  if (!WriteJsonFile(path, json)) {
    return false;
  }
  std::printf("%s written (%s)\n", path.c_str(), ok ? "pass" : "FAIL");
  return true;
}

// Pulls `"key": <number>` out of a flat JSON file without a JSON library.
inline bool ReadJsonNumber(const std::string& path, const char* key, double* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  std::string text;
  char chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

// The --baseline regression gate: passes when `value` lies within
// [min_ratio, max_ratio] times the baseline file's `key` (max_ratio may be
// infinite). Prints the verdict.
inline bool BaselineGate(const std::string& baseline, const char* key, double value,
                         double min_ratio, double max_ratio) {
  double base = 0.0;
  if (!ReadJsonNumber(baseline, key, &base)) {
    std::fprintf(stderr, "FAIL: cannot read %s from %s\n", key, baseline.c_str());
    return false;
  }
  const bool ok = value >= min_ratio * base && !(value > max_ratio * base);
  std::fprintf(ok ? stdout : stderr, "%sbaseline gate %s: %.4f vs baseline %.4f (%gx-%gx)\n",
               ok ? "" : "FAIL: ", key, value, base, min_ratio, max_ratio);
  return ok;
}

// Per-scheme trace file name: inserts "-<scheme>" before the extension so a
// multi-scheme bench writes one loadable trace per scheme.
inline std::string TraceFileForScheme(const std::string& out, const std::string& scheme) {
  const size_t dot = out.rfind('.');
  if (dot == std::string::npos || out.find('/', dot) != std::string::npos) {
    return out + "-" + scheme;
  }
  return out.substr(0, dot) + "-" + scheme + out.substr(dot);
}

// Runs every scheme over the workload and prints the Table 2/3/4-style
// summary. Returns the results in scheme order. With tracing enabled, each
// scheme writes its own Chrome trace file and prints the tracer summary.
inline std::vector<ExperimentResult> RunSchemes(const Workload& workload,
                                                std::vector<SchemeRun> schemes,
                                                const std::string& title,
                                                double sample_step = 0.0,
                                                const BenchTraceOptions* trace = nullptr) {
  std::vector<ExperimentResult> results;
  Table table({"scheme", "makespan", "avgJCT", "UEcpu", "SEcpu", "UEmem", "SEmem"});
  for (SchemeRun& scheme : schemes) {
    scheme.config.sample_step = sample_step;
    if (trace != nullptr && trace->enabled()) {
      scheme.config.trace_out = TraceFileForScheme(trace->out, scheme.name);
      scheme.config.trace_sample = trace->sample;
      scheme.config.trace_capacity = trace->capacity;
    }
    ExperimentResult result = RunExperiment(workload, scheme.config, scheme.name);
    table.Row()
        .Cell(scheme.name)
        .Cell(result.makespan(), 0)
        .Cell(result.avg_jct(), 2)
        .Cell(result.efficiency.ue_cpu)
        .Cell(result.efficiency.se_cpu)
        .Cell(result.efficiency.ue_mem)
        .Cell(result.efficiency.se_mem);
    results.push_back(std::move(result));
  }
  table.Print(title);
  for (const ExperimentResult& result : results) {
    // No-op for fault-free runs; otherwise includes recovery work and the
    // speculation outcome/wasted-work tables.
    MetricsCollector::PrintFaultReport(result.faults, result.scheme);
  }
  for (const ExperimentResult& result : results) {
    if (result.trace != nullptr) {
      result.trace->PrintSummary(result.scheme);
    }
  }
  return results;
}

// Prints a utilization window of a result as CSV series rows.
inline void PrintWindow(const ExperimentResult& result, double t0, double t1) {
  const auto& s = result.series;
  if (s.step <= 0.0) {
    return;
  }
  const size_t lo =
      static_cast<size_t>(std::max(0.0, (t0 - s.t0) / s.step));
  const size_t hi = std::min(
      s.cpu.size(), static_cast<size_t>(std::max(0.0, (t1 - s.t0) / s.step)));
  std::printf("series,%s,t,cpu,mem,net\n", result.scheme.c_str());
  for (size_t i = lo; i < hi; ++i) {
    std::printf("%s,%.1f,%.1f,%.1f,%.1f\n", result.scheme.c_str(),
                s.t0 + static_cast<double>(i) * s.step, s.cpu[i], s.mem[i], s.net[i]);
  }
}

}  // namespace ursa

#endif  // BENCH_BENCH_UTIL_H_
