// perfbench: the repository's end-to-end benchmark (README.md in this
// directory). Runs one workload for a fixed time and prints, as its last
// stdout line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics from the
// traced run's spans (--trace 1).
//
//   perfbench --workload paper_dense|service_mixed --seed N
//             --seconds S --trace 0|1 [--golden PATH] [--spans PATH]
//             [--record-golden]
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.h"

extern char** environ;

namespace {

int usage(const char* message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload paper_dense|service_mixed --seed N\n"
               "                 --seconds S --trace 0|1 [--golden PATH] [--spans PATH]\n"
               "                 [--record-golden]\n";
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "unknown";
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  // The SND_* switches select alternative implementations or change where
  // artifacts go; a result measured under one is not comparable.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SND_", 4) == 0) {
      std::cerr << "perfbench: unset " << std::string_view(*env).substr(0, std::strcspn(*env, "="))
                << " before running the benchmark\n";
      return 2;
    }
  }

  perfbench::RunOptions options;
  std::string golden_path;
  std::string spans_path;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--record-golden") {
      options.record_golden = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for a flag");
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      if (!perfbench::known_workload(value)) return usage("unknown workload");
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) return usage("--seed takes a non-negative integer");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600) {
        return usage("--seconds takes an integer from 1 to 3600");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return usage("--trace takes 0 or 1");
      }
      options.traced = std::string_view(value) == "1";
      have_trace = true;
    } else if (flag == "--golden") {
      golden_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::Golden golden;
  if (!golden_path.empty()) {
    std::string error;
    if (!golden.load(golden_path, error)) {
      std::cerr << "perfbench: " << error << "\n";
      return 2;
    }
    options.golden = &golden;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string cpu = cpu_model();
  std::cout << "host: nproc=" << nproc << " cpu=" << json_string(cpu) << "\n";
  std::cout << "workload: " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.traced ? 1 : 0) << "\n"
            << std::flush;

  const perfbench::RunResult result = perfbench::run_workload(options);

  for (const std::string& failure : result.checks.failures) {
    std::cerr << "perfbench: check failed: " << failure << "\n";
  }
  if (options.record_golden) {
    for (const std::string& line : result.golden_lines) std::cout << line << "\n";
    return result.checks.failed == 0 ? 0 : 1;
  }
  if (options.traced && !spans_path.empty()) {
    const std::string header = "{\"workload\":" + json_string(options.workload) +
                               ",\"seed\":" + std::to_string(options.seed) +
                               ",\"nproc\":" + std::to_string(nproc) +
                               ",\"cpu\":" + json_string(cpu) + "}";
    if (!result.spans.write_jsonl(spans_path, header)) {
      std::cerr << "perfbench: cannot write " << spans_path << "\n";
      return 1;
    }
    std::cout << "spans: " << result.spans.spans().size() << " -> " << spans_path << "\n";
  }

  std::string line = "{\"correct\": ";
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& metric : result.metrics) {
    finite = finite && std::isfinite(metric.value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", std::isfinite(metric.value) ? metric.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(metric.name) + ": {\"value\": " + value +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  const std::uint64_t failed = result.checks.failed + (finite ? 0 : 1);
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.checks.attempted + (finite ? 0 : 1));
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {" + metrics + "}}";
  std::cout << line << std::endl;
  return 0;
}
