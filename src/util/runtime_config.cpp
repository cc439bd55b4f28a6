#include "util/runtime_config.h"

#include <cstdlib>

namespace snd {

namespace {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

RuntimeConfig& mutable_config() {
  static RuntimeConfig config = load_runtime_config_from_env();
  return config;
}

}  // namespace

RuntimeConfig load_runtime_config_from_env() {
  RuntimeConfig config;
  if (auto jobs = env_string("SND_JOBS")) {
    config.jobs = std::strtoll(jobs->c_str(), nullptr, 10);
  }
  config.log_level = env_string("SND_LOG_LEVEL");
  config.trace_level = env_string("SND_TRACE_LEVEL");
  config.trace_json = env_string("SND_TRACE_JSON");
  config.trace_bin = env_string("SND_TRACE_BIN");
  config.bench_dir = env_string("SND_BENCH_DIR");
  return config;
}

const RuntimeConfig& runtime_config() { return mutable_config(); }

void set_runtime_config_for_testing(const RuntimeConfig& config) {
  mutable_config() = config;
}

std::string bench_artifact_path(std::string_view filename) {
  const RuntimeConfig& config = runtime_config();
  if (!config.bench_dir) return std::string(filename);
  return *config.bench_dir + "/" + std::string(filename);
}

}  // namespace snd
