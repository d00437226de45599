// hefbench — the repository benchmark. One invocation runs one workload:
//
//   hefbench --workload ssb-scan --seed 7 --seconds 20 --trace 0
//            [--trace_out trace.json]
//
// It generates the SF 0.1 database from the seed, checks every answer
// against the reference engine, measures the workload for --seconds with
// tracing off (--trace 0, end-to-end metrics) or with the per-layer
// traced run (--trace 1), and prints as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}; the line before it
// holds host evidence. Exits 1 when any answer is wrong or the run is
// too short to support its p99, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/host.h"
#include "harness/setup.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && args->seconds > 0 && !args->workload.empty();
}

// %.17g keeps every digit; JSON has no NaN or infinity.
void PrintNumber(double v) {
  std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

void PrintReport(const RunReport& report) {
  std::printf("{\"host\":{");
  for (std::size_t i = 0; i < report.host.size(); ++i) {
    std::printf("%s\"%s\":", i == 0 ? "" : ",", report.host[i].first.c_str());
    PrintNumber(report.host[i].second);
  }
  std::printf("}}\n");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value] = report.metrics[i];
    std::printf("%s\"%s\":{\"value\":", i == 0 ? "" : ",", name.c_str());
    PrintNumber(value.first);
    std::printf(",\"unit\":\"%s\"}", value.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hefbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace_out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "hefbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  constexpr int kCalibrationRounds = 5;
  std::vector<double> calib_before;
  std::vector<double> calib_after;
  for (int i = 0; i < kCalibrationRounds; ++i) {
    calib_before.push_back(CalibrationMs());
  }
  const CpuTimes cpu_before = ReadCpuTimes();

  SpanLog spans(args.trace);
  RunReport report =
      RunWorkload(*spec, args.seed, args.seconds, args.trace, spans);

  const CpuTimes cpu_after = ReadCpuTimes();
  for (int i = 0; i < kCalibrationRounds; ++i) {
    calib_after.push_back(CalibrationMs());
  }
  const double steal = StealFraction(cpu_before, cpu_after);
  std::vector<double> calib = calib_before;
  calib.insert(calib.end(), calib_after.begin(), calib_after.end());
  report.host = {{"host.steal_frac", steal},
                 {"host.calib_ms", Median(calib)},
                 {"host.calib_before_ms", Median(calib_before)},
                 {"host.calib_after_ms", Median(calib_after)}};
  if (args.trace) {
    report.Add("host.steal_frac", steal, "ratio");
    report.Add("host.calib_ms", Median(calib), "ms");
    if (!args.trace_out.empty() &&
        !WriteChromeTrace(spans.spans(), args.trace_out)) {
      std::fprintf(stderr, "hefbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  if (!report.correct) {
    std::fprintf(stderr, "hefbench: %s failed (%llu of %llu operations)\n",
                 spec->name.c_str(),
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
  }
  PrintReport(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
