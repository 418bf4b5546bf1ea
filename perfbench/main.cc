// perfbench_runner: runs one benchmark workload and prints its result as one JSON line.
//
//   perfbench_runner --workload sweep|scale1024|native_kv|mck --seed N --seconds S
//                    --trace 0|1
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics. --trace 1 is
// the traced run: it reports every per-layer metric by running each workload's traced
// section (spans around calls into the library) next to an untraced reference of the
// same work, so the difference is the tracing overhead. perfbench/run.py is the entry
// point that builds this binary, adds the host fingerprint and checks the result.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using RunFn = void (*)(const Options&, Report&);

const std::map<std::string, RunFn>& Workloads() {
  static const std::map<std::string, RunFn> workloads = {
      {"sweep", RunSweep},
      {"scale1024", RunScale1024},
      {"native_kv", RunNativeKv},
      {"mck", RunMck},
  };
  return workloads;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintReport(const Report& report) {
  for (const Report::Metric& m : report.metrics()) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              report.failed() == 0 ? "true" : "false", report.attempted(), report.failed());
  const char* sep = "";
  for (const Report::Metric& m : report.metrics()) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", sep, JsonString(m.name).c_str(),
                m.value, JsonString(m.unit).c_str());
    sep = ", ";
  }
  std::printf("}, \"notes\": {");
  sep = "";
  for (const auto& [key, value] : report.notes()) {
    std::printf("%s%s: %s", sep, JsonString(key).c_str(), JsonString(value).c_str());
    sep = ", ";
  }
  std::printf("}, \"failures\": [");
  sep = "";
  for (const std::string& failure : report.failures()) {
    std::printf("%s%s", sep, JsonString(failure).c_str());
    sep = ", ";
  }
  std::printf("]}\n");
}

// Peak resident set of this program image: VmHWM, which exec resets. (getrusage's
// ru_maxrss survives exec, so it would report the launching process's peak when that
// one is larger, as a Python parent is.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// Cost of one steady-clock timestamp: the floor under every span.
double ClockNs() {
  constexpr int kReads = 1 << 20;
  const int64_t start = NowNs();
  int64_t last = start;
  for (int i = 0; i < kReads; ++i) {
    last = NowNs();
  }
  return static_cast<double>(last - start) / kReads;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_runner --workload sweep|scale1024|native_kv|mck"
               " --seed N --seconds S --trace 0|1\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag or bad value: " + flag + " " + value).c_str());
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || !have_workload || Workloads().count(options.workload) == 0) {
    return Usage("missing or unknown --workload");
  }
  if (!(options.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }
  std::filesystem::create_directories(options.scratch_dir);
  HostCpus::Allowed();  // record the allowed CPUs before any thread is pinned

  Report report;
  if (options.trace) {
    TraceSweep(options, report);
    TraceScale1024(options, report);
    TraceNativeKv(options, report);
    TraceMck(options, report);
    report.Add("bench.clock_ns", ClockNs(), "ns");
  } else {
    Workloads().at(options.workload)(options, report);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Add("failed_frac",
             report.attempted() == 0
                 ? 1.0
                 : static_cast<double>(report.failed()) / static_cast<double>(report.attempted()),
             "ratio");
  PrintReport(report);
  return report.failed() == 0 ? 0 : 1;
}
