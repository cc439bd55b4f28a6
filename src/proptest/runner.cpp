#include "proptest/runner.h"

#include <cstdio>

#include "util/json.h"
#include "util/rng.h"

namespace snd::proptest {

namespace {

std::string violations_json(const std::vector<Violation>& violations) {
  std::string out = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"oracle\":" + util::json_quote(violations[i].oracle) +
           ",\"message\":" + util::json_quote(violations[i].message) + "}";
  }
  out += "]";
  return out;
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
                  std::fputc('\n', file) != EOF;
  return std::fclose(file) == 0 && ok;
}

std::string read_text(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok ? text : std::string{};
}

/// Writes the artifact into config.failcase_dir (when enabled) and records
/// the path on the failcase.
void emit(FailCase& failcase, const PropConfig& config) {
  if (config.failcase_dir.empty()) return;
  const std::string path = config.failcase_dir + "/FAILCASE_" + failcase.kind + "_" +
                           std::to_string(failcase.trial) + "_" +
                           std::to_string(failcase.trial_seed) + ".json";
  if (write_text(path, failcase.to_json())) failcase.path = path;
}

}  // namespace

std::string FailCase::to_json() const {
  std::string out = "{\"kind\":" + util::json_quote(kind);
  out += ",\"trial\":" + std::to_string(trial);
  out += ",\"base_seed\":" + std::to_string(base_seed);
  out += ",\"trial_seed\":" + std::to_string(trial_seed);
  out += ",\"digest\":" + util::json_quote(digest);
  out += ",\"unshrunk_actions\":" + std::to_string(unshrunk_actions);
  out += ",\"shrink_runs\":" + std::to_string(shrink_runs);
  out += ",\"violations\":" + violations_json(violations);
  out += ",\"plan\":" + plan.to_json();
  if (!adversary.empty()) out += ",\"adversary\":" + adversary.to_json();
  out += "}";
  return out;
}

PropReport run_property_suite(const PropConfig& config) {
  PropReport report;
  report.trials = config.trials;
  report.sweep.name = "proptest";

  // Phase 1: the parallel sweep. Each trial is self-contained (seed ->
  // scenario -> run -> oracle check) and lands in its own result slot, so
  // the outcome set is bit-identical for any --jobs.
  runner::TrialRunner pool(config.jobs);
  auto results = pool.run(
      config.trials, config.base_seed,
      [](std::size_t, std::uint64_t seed) { return run_trial(seed); }, &report.sweep);
  report.errored = report.sweep.failed;

  std::vector<std::size_t> failing;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].has_value()) continue;  // threw; already counted
    if (results[i]->passed()) {
      ++report.passed;
    } else {
      ++report.failed;
      failing.push_back(i);
    }
  }

  // Phase 2: serial shrinking of the first max_failures failures. Serial
  // because shrinking re-runs trials many times; parallelizing it would
  // buy little and interleave FAILCASE writes.
  for (const std::size_t i : failing) {
    if (report.failcases.size() >= config.max_failures) break;
    const std::uint64_t trial_seed = util::derive_seed(config.base_seed, i);
    const Scenario scenario = make_scenario(trial_seed);
    const ShrinkResult shrunk = shrink_failing_plan(trial_seed, scenario.plan);

    FailCase failcase;
    failcase.kind = "invariant";
    failcase.trial = i;
    failcase.base_seed = config.base_seed;
    failcase.trial_seed = trial_seed;
    failcase.unshrunk_actions = scenario.plan.actions.size();
    failcase.shrink_runs = shrunk.runs;
    failcase.adversary = scenario.adversary;
    if (shrunk.outcome.passed()) {
      // The serial re-run did not reproduce the sweep's failure -- record
      // the original outcome so the artifact still points at the evidence.
      failcase.plan = scenario.plan;
      failcase.digest = results[i]->digest;
      failcase.violations = results[i]->violations;
      failcase.unshrunk_actions = 0;
    } else {
      failcase.plan = shrunk.plan;
      failcase.digest = shrunk.outcome.digest;
      failcase.violations = shrunk.outcome.violations;
    }
    emit(failcase, config);
    report.failcases.push_back(std::move(failcase));
  }

  return report;
}

ReplayResult replay_failcase(const std::string& path) {
  ReplayResult result;
  const std::string text = read_text(path);
  if (text.empty()) {
    result.error = "cannot read " + path;
    return result;
  }
  const auto doc = util::JsonValue::parse(text);
  if (!doc || !doc->is_object()) {
    result.error = "malformed FAILCASE JSON";
    return result;
  }
  const auto trial_seed = doc->u64("trial_seed");
  const auto digest = doc->string("digest");
  const util::JsonValue* plan_value = doc->find("plan");
  if (!trial_seed || !digest || plan_value == nullptr) {
    result.error = "FAILCASE missing trial_seed/digest/plan";
    return result;
  }
  const auto plan = fault::FaultPlan::from_value(*plan_value);
  if (!plan) {
    result.error = "FAILCASE plan does not parse";
    return result;
  }
  // Older artifacts carry no "adversary" member: they replay with the
  // seed-drawn families, exactly as they ran. Newer ones pin the armed
  // config through the scenario override for the duration of the replay.
  std::optional<adversary::ScenarioConfig> armed;
  if (const util::JsonValue* adv = doc->find("adversary")) {
    armed = adversary::ScenarioConfig::from_value(*adv);
    if (!armed) {
      result.error = "FAILCASE adversary config does not parse";
      return result;
    }
  }
  result.loaded = true;
  result.expected_digest = std::string(*digest);
  const std::optional<adversary::ScenarioConfig> previous = scenario_override();
  if (armed) set_scenario_override(armed);
  result.outcome = run_trial(*trial_seed, *plan);
  if (armed) set_scenario_override(previous);
  result.reproduced = !result.outcome.passed();
  result.digest_matches = result.outcome.digest == result.expected_digest;
  return result;
}

}  // namespace snd::proptest
