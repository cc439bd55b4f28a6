#include "runner/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "util/file.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/runtime_config.h"

namespace snd::runner {

namespace {

/// One worker's shard of the trial index space: a (begin, end) pair packed
/// into a single atomic word so the owning pop and a thief's split race
/// through one CAS. begin only grows and end only shrinks, so no state ever
/// repeats and CAS cannot suffer ABA.
class StealableRange {
 public:
  void init(std::uint32_t begin, std::uint32_t end) {
    word_.store(pack(begin, end), std::memory_order_relaxed);
  }

  /// Owner path: takes the front index. False when the shard is drained.
  bool pop(std::uint32_t& index) {
    std::uint64_t word = word_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t begin = unpack_begin(word);
      const std::uint32_t end = unpack_end(word);
      if (begin >= end) return false;
      if (word_.compare_exchange_weak(word, pack(begin + 1, end),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        index = begin;
        return true;
      }
    }
  }

  /// Thief path: splits off the back half as a privately owned chunk.
  bool steal(std::uint32_t& begin, std::uint32_t& end) {
    std::uint64_t word = word_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t b = unpack_begin(word);
      const std::uint32_t e = unpack_end(word);
      if (b >= e) return false;
      const std::uint32_t take = (e - b + 1) / 2;
      if (word_.compare_exchange_weak(word, pack(b, e - take),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        begin = e - take;
        end = e;
        return true;
      }
    }
  }

  [[nodiscard]] std::uint32_t remaining() const {
    const std::uint64_t word = word_.load(std::memory_order_relaxed);
    const std::uint32_t begin = unpack_begin(word);
    const std::uint32_t end = unpack_end(word);
    return begin < end ? end - begin : 0;
  }

 private:
  static std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
    return (static_cast<std::uint64_t>(end) << 32) | begin;
  }
  static std::uint32_t unpack_begin(std::uint64_t word) {
    return static_cast<std::uint32_t>(word);
  }
  static std::uint32_t unpack_end(std::uint64_t word) {
    return static_cast<std::uint32_t>(word >> 32);
  }

  std::atomic<std::uint64_t> word_{0};
};

double micros_between(std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}


}  // namespace

TrialRunner::TrialRunner(std::size_t jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? hw : 1;
  }
}

void TrialRunner::run_raw(
    std::size_t count, std::uint64_t base_seed, const std::uint32_t* indices,
    const std::function<void(std::size_t, std::size_t, std::uint64_t)>& body,
    SweepReport* report) const {
  // Shard indices are packed 32-bit (see StealableRange).
  if (count > 0xffffffffULL) {
    throw std::invalid_argument("TrialRunner: more than 2^32 trials per sweep");
  }
  const auto sweep_start = std::chrono::steady_clock::now();

  // Per-trial slots: each slot is written by exactly one worker, and the
  // joins below publish every write before the trial-order merge reads them.
  std::vector<double> micros(count, 0.0);
  std::vector<std::string> messages(count);
  std::vector<unsigned char> failed(count, 0);

  auto execute = [&](std::uint32_t slot) {
    const std::size_t trial = indices != nullptr ? indices[slot] : slot;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      body(slot, trial, util::derive_seed(base_seed, trial));
    } catch (const std::exception& e) {
      failed[slot] = 1;
      messages[slot] = e.what();
    } catch (...) {
      failed[slot] = 1;
      messages[slot] = "non-standard exception";
    }
    micros[slot] = micros_between(t0, std::chrono::steady_clock::now());
  };

  const std::size_t trials = count;
  const std::size_t jobs = trials == 0 ? 1 : std::min(jobs_, trials);
  if (jobs <= 1) {
    for (std::uint32_t i = 0; i < trials; ++i) execute(i);
  } else {
    std::vector<StealableRange> shards(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      // Even contiguous shards; the first `trials % jobs` get one extra.
      const std::size_t lo = w * trials / jobs;
      const std::size_t hi = (w + 1) * trials / jobs;
      shards[w].init(static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi));
    }

    auto worker = [&](std::size_t self) {
      std::uint32_t chunk_lo = 0;
      std::uint32_t chunk_hi = 0;  // privately owned stolen chunk
      for (;;) {
        if (chunk_lo < chunk_hi) {
          execute(chunk_lo++);
          continue;
        }
        std::uint32_t index = 0;
        if (shards[self].pop(index)) {
          execute(index);
          continue;
        }
        // Own shard drained: steal the back half of the fullest shard.
        std::size_t victim = jobs;
        std::uint32_t best = 0;
        for (std::size_t w = 0; w < jobs; ++w) {
          if (w == self) continue;
          const std::uint32_t left = shards[w].remaining();
          if (left > best) {
            best = left;
            victim = w;
          }
        }
        if (victim == jobs || !shards[victim].steal(chunk_lo, chunk_hi)) {
          if (best == 0) break;  // every shard drained; running trials finish alone
          continue;              // lost the race to another thief; rescan
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
    for (std::thread& t : threads) t.join();
  }

  if (report == nullptr) return;
  report->trials += trials;
  report->jobs = jobs_;
  report->wall_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - sweep_start)
                              .count();
  for (std::size_t i = 0; i < trials; ++i) {
    report->trial_micros.add(micros[i]);
    if (failed[i] != 0) report->note_failure(indices != nullptr ? indices[i] : i, messages[i]);
  }
}

void SweepReport::note_failure(std::uint64_t trial, std::string_view message) {
  ++failed;
  if (errors.size() < kMaxReportedErrors) {
    errors.push_back("trial " + std::to_string(trial) + ": " + std::string(message));
  }
}

util::Series& SweepReport::metric(std::string_view name) {
  for (auto& [key, series] : metrics) {
    if (key == name) return series;
  }
  metrics.emplace_back(std::string(name), util::Series{});
  return metrics.back().second;
}

double SweepReport::trials_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
}

namespace {

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// mean/stdev/ci95 block for one metric column. The normal-approximation
/// 95% interval (mean +/- 1.96 * sem) is computed from the series in its
/// stored (trial) order, so it is byte-identical however the trials were
/// sharded.
std::string metric_block(const util::Series& series) {
  const double mean = series.mean();
  const double stdev = series.stdev();
  const double sem = series.count() > 1
                         ? stdev / std::sqrt(static_cast<double>(series.count()))
                         : 0.0;
  std::string out = "{\"count\": " + std::to_string(series.count());
  out += ", \"mean\": " + json_num(mean);
  out += ", \"stdev\": " + json_num(stdev);
  out += ", \"ci95\": [" + json_num(mean - 1.96 * sem) + ", " +
         json_num(mean + 1.96 * sem) + "]}";
  return out;
}

/// The report body; `timing` adds the wall-clock fields that
/// to_canonical_json() leaves out.
std::string report_json(const SweepReport& report, bool timing) {
  std::string out = "{\n  \"name\": " + util::json_quote(report.name);
  out += ",\n  \"trials\": " + std::to_string(report.trials);
  out += ",\n  \"failed\": " + std::to_string(report.failed);
  if (timing) {
    const util::Series& micros = report.trial_micros;
    out += ",\n  \"jobs\": " + std::to_string(report.jobs);
    out += ",\n  \"wall_seconds\": " + json_num(report.wall_seconds);
    out += ",\n  \"trials_per_second\": " + json_num(report.trials_per_second());
    out += ",\n  \"trial_us\": {";
    if (micros.count() > 0) {
      out += "\"mean\": " + json_num(micros.mean());
      out += ", \"p50\": " + json_num(micros.percentile(50.0));
      out += ", \"p95\": " + json_num(micros.percentile(95.0));
      out += ", \"max\": " + json_num(micros.percentile(100.0));
    }
    out += "}";
  }
  if (!report.metrics.empty()) {
    out += ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += util::json_quote(report.metrics[i].first);
      out += ": " + metric_block(report.metrics[i].second);
    }
    out += "}";
  }
  out += ",\n  \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += util::json_quote(report.errors[i]);
  }
  out += "]";
  if (report.has_trace) out += ",\n  \"trace\": " + report.trace.to_json();
  out += "\n}\n";
  return out;
}

}  // namespace

std::string SweepReport::to_json() const { return report_json(*this, /*timing=*/true); }

std::string SweepReport::to_canonical_json() const {
  return report_json(*this, /*timing=*/false);
}

std::string SweepReport::write_json() const {
  const std::string path = bench_artifact_path("BENCH_" + name + ".json");
  return util::write_file(path, to_json()) ? path : std::string{};
}

bool SweepReport::write_canonical(const std::string& path) const {
  return util::write_file(path, to_canonical_json());
}

}  // namespace snd::runner
