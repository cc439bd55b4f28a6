// The .sndshard binary format: varint primitives, writer/reader round
// trips, torn-tail recovery, and corruption fuzzing. The contract under
// test: a reader either returns exactly what a writer persisted (modulo a
// discarded torn tail) or fails loudly -- it never silently completes with
// wrong data.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shard/format.h"
#include "shard/shard.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace snd::shard {
namespace {

// -- varint / crc32 primitives ----------------------------------------------

TEST(Varint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,   1,    127,  128,   129,    16383, 16384,
                                  1u << 20, (1ull << 35) + 7, ~0ull, ~0ull - 1, 42};
  for (std::uint64_t v : values) {
    util::Bytes buf;
    util::put_varint(buf, v);
    util::ByteReader reader(buf);
    const auto got = reader.varint();
    ASSERT_TRUE(got.has_value()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(Varint, RejectsOverlongAndOverflowingEncodings) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  util::Bytes overlong(11, 0x80);
  overlong.push_back(0x00);
  EXPECT_FALSE(util::ByteReader(overlong).varint().has_value());
  // 10th byte with payload bits beyond the 64th: arithmetic overflow.
  util::Bytes overflow(9, 0x80);
  overflow.push_back(0x7f);
  EXPECT_FALSE(util::ByteReader(overflow).varint().has_value());
  // Truncated mid-varint.
  util::Bytes cut = {0x80};
  EXPECT_FALSE(util::ByteReader(cut).varint().has_value());
}

TEST(Crc32, MatchesKnownVector) {
  const std::string text = "123456789";
  const util::Bytes data(text.begin(), text.end());
  EXPECT_EQ(util::crc32(data), 0xcbf43926u);  // the classic CRC-32 check value
  EXPECT_EQ(util::crc32(util::Bytes{}), 0u);
}

// -- shard spec / addressing -------------------------------------------------

ShardSpec test_spec(std::uint32_t index = 0, std::uint32_t count = 1) {
  ShardSpec spec;
  spec.sweep_id = "unit_sweep";
  spec.shard_index = index;
  spec.shard_count = count;
  spec.base_seed = 1234;
  spec.total_trials = 23;
  spec.metric_names = {"accuracy", "latency"};
  return spec;
}

TEST(ShardSpec, StridedIndicesPartitionTheTrialSpace) {
  std::vector<bool> seen(23, false);
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t trial : test_spec(k, 4).trial_indices()) {
      EXPECT_FALSE(seen[trial]);
      EXPECT_EQ(trial % 4, k);
      seen[trial] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(ShardSpec, SchemaHashTracksMetricNames) {
  ShardSpec a = test_spec();
  ShardSpec b = test_spec();
  EXPECT_EQ(a.schema_hash(), b.schema_hash());
  b.metric_names.push_back("extra");
  EXPECT_NE(a.schema_hash(), b.schema_hash());
}

TEST(ShardSpec, ParseShardArg) {
  const auto ok = parse_shard_arg("2/4");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->first, 2u);
  EXPECT_EQ(ok->second, 4u);
  EXPECT_FALSE(parse_shard_arg("4/4").has_value());
  EXPECT_FALSE(parse_shard_arg("0/0").has_value());
  EXPECT_FALSE(parse_shard_arg("1").has_value());
  EXPECT_FALSE(parse_shard_arg("a/b").has_value());
  EXPECT_FALSE(parse_shard_arg("-1/4").has_value());
  EXPECT_FALSE(parse_shard_arg("1/4/2").has_value());
  EXPECT_FALSE(parse_shard_arg("").has_value());
}

// -- writer/reader round trip ------------------------------------------------

std::vector<TrialRecord> sample_records(const ShardSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<TrialRecord> records;
  for (std::uint32_t trial : spec.trial_indices()) {
    TrialRecord r;
    r.trial = trial;
    if (rng.uniform() < 0.2) {
      r.failed = true;
      r.error = "boom at " + std::to_string(trial);
      r.values.assign(spec.metric_names.size(), 0.0);
    } else {
      r.values = {rng.uniform(), rng.uniform(0.0, 1e6)};
      r.trace.deliveries = rng.uniform_int(std::uint64_t{1000});
      r.trace.tx[2].messages = rng.uniform_int(std::uint64_t{50});
      r.trace.tx[2].bytes = rng.uniform_int(std::uint64_t{90000});
      r.trace.drops[1] = rng.uniform_int(std::uint64_t{10});
      r.trace.trials = 1;
      r.trace.events = rng.uniform_int(std::uint64_t{1 << 20});
    }
    records.push_back(std::move(r));
  }
  return records;
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

void expect_same_records(const std::vector<TrialRecord>& got,
                         const std::vector<TrialRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].trial, want[i].trial);
    EXPECT_EQ(got[i].failed, want[i].failed);
    EXPECT_EQ(got[i].error, want[i].error);
    EXPECT_EQ(got[i].values, want[i].values);
    EXPECT_EQ(got[i].trace.deliveries, want[i].trace.deliveries);
    EXPECT_EQ(got[i].trace.tx[2].messages, want[i].trace.tx[2].messages);
    EXPECT_EQ(got[i].trace.tx[2].bytes, want[i].trace.tx[2].bytes);
    EXPECT_EQ(got[i].trace.drops[1], want[i].trace.drops[1]);
    EXPECT_EQ(got[i].trace.events, want[i].trace.events);
    EXPECT_EQ(got[i].trace.trials, want[i].trace.trials);
  }
}

TEST(ShardFile, WriteReadRoundTripIsExact) {
  const ShardSpec spec = test_spec(1, 3);
  const auto records = sample_records(spec, 7);
  const std::string path = temp_path("roundtrip.sndshard");

  ShardWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open_new(path, spec, &error)) << error;
  // Several checkpoints, to exercise multi-chunk files.
  for (std::size_t i = 0; i < records.size(); ++i) {
    writer.append(records[i]);
    if (i % 3 == 2) {
      ASSERT_TRUE(writer.checkpoint(1.5));
    }
  }
  ASSERT_TRUE(writer.close(2.5));

  const auto data = read_shard_file(path, &error);
  ASSERT_TRUE(data.has_value()) << error;
  EXPECT_TRUE(spec.mismatch(data->spec).empty());
  EXPECT_EQ(data->spec.shard_index, spec.shard_index);
  EXPECT_EQ(data->discarded_bytes, 0u);
  EXPECT_DOUBLE_EQ(data->wall_seconds, 2.5);
  expect_same_records(data->records, records);
}

TEST(ShardFile, TornTailKeepsThePrefixAndResumeCompletes) {
  const ShardSpec spec = test_spec();
  const auto records = sample_records(spec, 11);
  const std::string path = temp_path("torn.sndshard");

  ShardWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open_new(path, spec, &error)) << error;
  for (std::size_t i = 0; i < 8; ++i) writer.append(records[i]);
  ASSERT_TRUE(writer.checkpoint(1.0));
  for (std::size_t i = 8; i < records.size(); ++i) writer.append(records[i]);
  ASSERT_TRUE(writer.close(2.0));

  // Cut the second chunk short, as a crash mid-write would.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);

  auto torn = read_shard_file(path, &error);
  ASSERT_TRUE(torn.has_value()) << error;
  EXPECT_EQ(torn->records.size(), 8u);
  EXPECT_GT(torn->discarded_bytes, 0u);

  // Resume truncates the tail and appends the missing trials.
  ShardWriter resumed;
  std::vector<TrialRecord> completed;
  ASSERT_TRUE(resumed.open_resume(path, spec, &completed, &error)) << error;
  EXPECT_EQ(completed.size(), 8u);
  for (std::size_t i = 8; i < records.size(); ++i) resumed.append(records[i]);
  ASSERT_TRUE(resumed.close(3.0));

  const auto whole = read_shard_file(path, &error);
  ASSERT_TRUE(whole.has_value()) << error;
  EXPECT_EQ(whole->discarded_bytes, 0u);
  expect_same_records(whole->records, records);
}

TEST(ShardFile, ResumeOfMissingFileStartsFresh) {
  const std::string path = temp_path("fresh_resume.sndshard");
  std::filesystem::remove(path);
  ShardWriter writer;
  std::vector<TrialRecord> completed;
  std::string error;
  ASSERT_TRUE(writer.open_resume(path, test_spec(), &completed, &error)) << error;
  EXPECT_TRUE(completed.empty());
  ASSERT_TRUE(writer.close(0.0));
}

TEST(ShardFile, ResumeRefusesMismatchedSpec) {
  const ShardSpec spec = test_spec(0, 2);
  const std::string path = temp_path("mismatch_resume.sndshard");
  ShardWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open_new(path, spec, &error)) << error;
  ASSERT_TRUE(writer.close(0.0));

  ShardSpec other = spec;
  other.base_seed ^= 1;
  ShardWriter resumed;
  ASSERT_FALSE(resumed.open_resume(path, other, nullptr, &error));
  EXPECT_NE(error.find("base_seed"), std::string::npos) << error;

  ShardSpec wrong_index = spec;
  wrong_index.shard_index = 1;
  ASSERT_FALSE(resumed.open_resume(path, wrong_index, nullptr, &error));
  EXPECT_NE(error.find("shard"), std::string::npos) << error;
}

// -- corruption is loud, never silent ----------------------------------------

util::Bytes file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  util::Bytes data;
  std::uint8_t buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.insert(data.end(), buf, buf + got);
  std::fclose(f);
  return data;
}

void write_bytes(const std::string& path, const util::Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

TEST(ShardFileFuzz, SingleByteFlipsNeverYieldExtraOrAlteredRecords) {
  const ShardSpec spec = test_spec();
  const auto records = sample_records(spec, 13);
  const std::string path = temp_path("fuzz_base.sndshard");
  ShardWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open_new(path, spec, &error)) << error;
  for (std::size_t i = 0; i < records.size(); ++i) {
    writer.append(records[i]);
    if (i % 5 == 4) {
      ASSERT_TRUE(writer.checkpoint(1.0));
    }
  }
  ASSERT_TRUE(writer.close(1.0));
  const util::Bytes pristine = file_bytes(path);

  const std::string mutated_path = temp_path("fuzz_mut.sndshard");
  util::Rng rng(20260809);
  for (int round = 0; round < 300; ++round) {
    util::Bytes mutated = pristine;
    const std::size_t pos = rng.uniform_int(std::uint64_t{mutated.size()});
    const auto bit = static_cast<std::uint8_t>(1u << rng.uniform_int(std::uint64_t{8}));
    mutated[pos] ^= bit;
    write_bytes(mutated_path, mutated);

    const auto got = read_shard_file(mutated_path, &error);
    if (!got.has_value()) continue;  // loud failure: fine
    // Accepted: every surviving record must be one the writer produced, and
    // the file may only have lost a tail, never gained or changed content.
    ASSERT_LE(got->records.size(), records.size());
    expect_same_records(
        got->records,
        std::vector<TrialRecord>(records.begin(), records.begin() + got->records.size()));
    if (got->records.size() < records.size()) {
      EXPECT_GT(got->discarded_bytes, 0u);
    }
  }
}

TEST(ShardFileFuzz, RandomTruncationsNeverYieldAlteredRecords) {
  const ShardSpec spec = test_spec();
  const auto records = sample_records(spec, 17);
  const std::string path = temp_path("trunc_base.sndshard");
  ShardWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open_new(path, spec, &error)) << error;
  for (std::size_t i = 0; i < records.size(); ++i) {
    writer.append(records[i]);
    if (i % 4 == 3) {
      ASSERT_TRUE(writer.checkpoint(1.0));
    }
  }
  ASSERT_TRUE(writer.close(1.0));
  const util::Bytes pristine = file_bytes(path);

  const std::string cut_path = temp_path("trunc_cut.sndshard");
  util::Rng rng(8);
  for (int round = 0; round < 100; ++round) {
    const std::size_t keep = rng.uniform_int(std::uint64_t{pristine.size() + 1});
    write_bytes(cut_path, util::Bytes(pristine.begin(), pristine.begin() + keep));
    const auto got = read_shard_file(cut_path, &error);
    if (!got.has_value()) continue;  // header damage: loud failure
    ASSERT_LE(got->records.size(), records.size());
    expect_same_records(
        got->records,
        std::vector<TrialRecord>(records.begin(), records.begin() + got->records.size()));
  }
}

TEST(ShardFile, RejectsWrongMagicAndGarbage) {
  const std::string path = temp_path("garbage.sndshard");
  std::string error;
  write_bytes(path, {'n', 'o', 't', ' ', 'i', 't', '!', '!'});
  EXPECT_FALSE(read_shard_file(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);
  EXPECT_FALSE(read_shard_file(temp_path("does_not_exist.sndshard"), &error).has_value());
}

}  // namespace
}  // namespace snd::shard
