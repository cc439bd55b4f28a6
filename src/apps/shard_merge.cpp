// Folds N .sndshard checkpoint files into one canonical BENCH report.
//
//   ./shard_merge shard_0.sndshard shard_1.sndshard ...
//                 [--out PATH] [--summary-md PATH]
//
// Every file must describe the same sweep (sweep_id, shard_count,
// base_seed, total_trials, schema hash), the shard indices must be
// distinct, and the union of records must cover every trial exactly once.
// Any overlap, gap, or spec mismatch exits non-zero with a precise message
// -- a partial farm run can never silently masquerade as a complete sweep.
//
// The merged JSON is the sweep's canonical report (trial counts, per-metric
// mean/ci95, error list, folded trace) with no timing fields, so it is
// byte-identical to the `--canonical-report` output of an unsharded run of
// the same sweep. CI asserts exactly that (see docs/SHARDING.md).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "shard/merge.h"
#include "util/driver_spec.h"
#include "util/file.h"
#include "util/runtime_config.h"

using namespace snd;

int main(int argc, char** argv) {
  util::cli::DriverSpec driver_spec(
      "shard_merge",
      "Fold .sndshard checkpoint files from a sharded sweep back into the\n"
      "canonical BENCH report (default --out: $SND_BENCH_DIR/\n"
      "BENCH_<sweep_id>.json).");
  driver_spec.string_flag("out", "", "PATH", "write the merged report JSON to PATH")
      .string_flag("summary-md", "", "PATH", "also write a markdown summary table")
      .positional("SHARD.sndshard", "shard files to merge", 1);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const std::string out_flag = cli.get("out");
  const std::string summary_path = cli.get("summary-md");

  std::string error;
  const auto merged = shard::merge_shards(cli.positional(), &error);
  if (!merged) {
    std::cerr << cli.program() << ": " << error << "\n";
    return 1;
  }

  std::string out_path = out_flag;
  if (out_path.empty()) {
    out_path = bench_artifact_path("BENCH_" + merged->report.name + ".json");
  }
  if (!util::write_file(out_path, merged->report.to_canonical_json())) {
    std::cerr << cli.program() << ": cannot write " << out_path << "\n";
    return 1;
  }
  if (!summary_path.empty() &&
      !util::write_file(summary_path, shard::summary_markdown(*merged))) {
    std::cerr << cli.program() << ": cannot write " << summary_path << "\n";
    return 1;
  }

  std::cout << merged->report.name << ": merged " << merged->shards.size()
            << " shards, " << merged->report.trials << " trials ("
            << merged->report.failed << " failed) -> " << out_path << "\n";
  for (const shard::ShardSummary& shard : merged->shards) {
    std::printf("  shard %u: %llu trials, %.2f s  (%s)\n", shard.shard_index,
                static_cast<unsigned long long>(shard.records), shard.wall_seconds,
                shard.path.c_str());
  }
  return 0;
}
