// Mutation fuzz of util::JsonValue::parse, the reader behind FAILCASE
// files, fault plans and scenario configs. Seeds are documents the repo's
// own writers produce, plus hand-written edge cases and random bytes; each
// input is mutated by byte flips, inserts, deletes, truncations and
// splices. Every input must parse or return nullopt. Every accepted value
// has every accessor run on it, and writing it back as JSON must reach a
// fixed point. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/scenario.h"
#include "fault/plan.h"
#include "obs/summary.h"
#include "proptest/runner.h"
#include "shard/merge.h"
#include "util/json.h"
#include "util/rng.h"

namespace snd::util {
namespace {

using Type = JsonValue::Type;

/// Writes `v` back as JSON while running every accessor on it and its
/// descendants and checking each against type(). Returns false when a
/// number has no finite double value, so the text written for it is a
/// placeholder rather than the number.
bool write_back(const JsonValue& v, std::string& out) {
  const Type type = v.type();
  EXPECT_EQ(v.is_null(), type == Type::kNull);
  EXPECT_EQ(v.is_array(), type == Type::kArray);
  EXPECT_EQ(v.is_object(), type == Type::kObject);
  EXPECT_EQ(v.as_bool().has_value(), type == Type::kBool);
  EXPECT_EQ(v.as_string().has_value(), type == Type::kString);
  if (type != Type::kNumber) {
    EXPECT_FALSE(v.as_double().has_value());
    EXPECT_FALSE(v.as_u64().has_value());
    EXPECT_FALSE(v.as_i64().has_value());
  }
  if (type != Type::kArray) {
    EXPECT_TRUE(v.items().empty());
  }
  if (type != Type::kObject) {
    EXPECT_TRUE(v.members().empty());
    EXPECT_EQ(v.find(""), nullptr);
    EXPECT_FALSE(v.u64("").has_value());
  }

  bool writable = true;
  switch (type) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += *v.as_bool() ? "true" : "false";
      break;
    case Type::kNumber: {
      const std::optional<double> d = v.as_double();
      const std::optional<std::uint64_t> u = v.as_u64();
      const std::optional<std::int64_t> i = v.as_i64();
      if (u && i) {
        EXPECT_EQ(static_cast<std::uint64_t>(*i), *u);
      }
      if (u) {
        out += std::to_string(*u);
      } else if (i) {
        out += std::to_string(*i);
      } else if (d) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", *d);
        out += buf;
      } else {
        out += "0";
        writable = false;
      }
      break;
    }
    case Type::kString:
      out += json_quote(*v.as_string());
      break;
    case Type::kArray:
      out += '[';
      for (std::size_t k = 0; k < v.items().size(); ++k) {
        if (k > 0) out += ',';
        writable &= write_back(v.items()[k], out);
      }
      out += ']';
      break;
    case Type::kObject:
      out += '{';
      for (std::size_t k = 0; k < v.members().size(); ++k) {
        const auto& [key, member] = v.members()[k];
        // find() and the shorthands answer for the first member named `key`.
        const JsonValue* first = v.find(key);
        EXPECT_NE(first, nullptr);
        if (first == nullptr) return false;
        EXPECT_LE(first, &member);
        EXPECT_EQ(v.u64(key), first->as_u64());
        EXPECT_EQ(v.i64(key), first->as_i64());
        EXPECT_EQ(v.number(key), first->as_double());
        EXPECT_EQ(v.string(key), first->as_string());
        EXPECT_EQ(v.boolean(key), first->as_bool());
        if (k > 0) out += ',';
        out += json_quote(key);
        out += ':';
        writable &= write_back(member, out);
      }
      out += '}';
      break;
  }
  return writable;
}

/// Parses `text`; when accepted, checks every accessor and that writing the
/// value back is a fixed point (write(parse(write(v))) == write(v)).
bool check_input(std::string_view text) {
  const std::optional<JsonValue> value = JsonValue::parse(text);
  if (!value) return false;
  std::string first;
  if (!write_back(*value, first)) return true;
  const std::optional<JsonValue> again = JsonValue::parse(first);
  EXPECT_TRUE(again.has_value()) << first;
  if (!again) return true;
  std::string second;
  EXPECT_TRUE(write_back(*again, second));
  EXPECT_EQ(second, first);
  return true;
}

fault::FaultPlan sample_plan() {
  fault::FaultPlan plan;
  plan.seed = 0xdeadbeefcafef00dULL;
  fault::FaultAction drop;
  drop.match.src = 3;
  drop.match.dst = 7;
  drop.match.phase = 2;
  drop.match.from_ns = 5'000;
  drop.match.until_ns = 9'000'000;
  drop.match.probability = 0.25;
  drop.match.max_hits = 5;
  plan.actions.push_back(drop);
  fault::FaultAction duplicate;
  duplicate.kind = fault::ActionKind::kDuplicate;
  duplicate.copies = 3;
  duplicate.delay_ns = 1'500;
  plan.actions.push_back(duplicate);
  fault::FaultAction corrupt;
  corrupt.kind = fault::ActionKind::kCorrupt;
  corrupt.corrupt_mode = fault::CorruptMode::kTruncate;
  plan.actions.push_back(corrupt);
  fault::FaultAction crash;
  crash.kind = fault::ActionKind::kCrash;
  crash.node = 11;
  crash.at_ns = 250'000'000;
  plan.actions.push_back(crash);
  fault::FaultAction skew;
  skew.kind = fault::ActionKind::kSkew;
  skew.node = 4;
  skew.drift = 1.0000125;
  plan.actions.push_back(skew);
  return plan;
}

/// Documents the repo's writers produce, and hand-written edge cases.
std::vector<std::string> writer_seeds() {
  std::vector<std::string> seeds;
  const fault::FaultPlan plan = sample_plan();
  seeds.push_back(plan.to_json());

  adversary::ScenarioConfig scenario;
  for (const char* family : {"relay", "sybil", "replay", "mobility", "churn"}) {
    EXPECT_TRUE(scenario.arm_family(family)) << family;
  }
  seeds.push_back(scenario.to_json());

  proptest::FailCase failcase;
  failcase.kind = "invariant";
  failcase.trial = 17;
  failcase.base_seed = 20090622;
  failcase.trial_seed = 0xffffffffffffffffULL;
  failcase.digest = std::string(64, 'a');
  failcase.violations.push_back(
      {"conservation.injected", "count \"3\" != 4\n\tat\\node\x01 caf\xc3\xa9"});
  failcase.plan = plan;
  failcase.adversary = scenario;
  failcase.unshrunk_actions = 5;
  failcase.path = "failcases/FAILCASE_invariant_17.json";
  seeds.push_back(failcase.to_json());

  shard::SweepReport report;
  report.name = "json_fuzz";
  report.trials = 3;
  report.failed = 1;
  report.errors.push_back("trial 2 threw: \"bad\"");
  report.metric("accuracy").add(0.5);
  report.metric("accuracy").add(1.0 / 3.0);
  report.attach_trace(obs::TraceSummary{});
  seeds.push_back(report.to_json());
  seeds.push_back(report.to_canonical_json());

  seeds.emplace_back(R"({"a":[1,-2.5e+3,true,false,null,"é\u0000\ud800\/\b\f\n\r\t\"\\"],)"
                     R"("b":{},"c":[],"a":{"dup":0}})");
  seeds.emplace_back(R"([18446744073709551615,18446744073709551616,-9223372036854775808,)"
                     R"(-9223372036854775809,0.000,-0,00012,1E+2,-1.5e-7])");
  seeds.emplace_back("[1e999,-1e999,1e-400,4.9e-324]");  // no finite double
  seeds.emplace_back(" \t\r\n{ \"k\" : [ [ ] , { } ] } \n");
  return seeds;
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform_int(std::uint64_t{256}));
  return out;
}

/// One byte biased toward JSON's structural alphabet, so mutations reach
/// past the first syntax check.
char fuzz_byte(Rng& rng) {
  static constexpr std::string_view kAlphabet = "{}[]\",:\\/0123456789.eE+-tfnulr \n\x7f";
  if (rng.chance(0.5)) return kAlphabet[rng.uniform_int(std::uint64_t{kAlphabet.size()})];
  return static_cast<char>(rng.uniform_int(std::uint64_t{256}));
}

/// Applies one random mutation: bit flip, byte overwrite, insert, delete,
/// truncation, splice with `donor`, or an in-place chunk duplication.
void mutate(Rng& rng, std::string& s, const std::string& donor) {
  const auto pos = [&](std::size_t n) { return static_cast<std::size_t>(rng.uniform_int(n + 1)); };
  switch (rng.uniform_int(std::uint64_t{7})) {
    case 0:
      if (!s.empty()) {
        s[pos(s.size() - 1)] ^= static_cast<char>(1u << rng.uniform_int(std::uint64_t{8}));
      }
      break;
    case 1:
      if (!s.empty()) s[pos(s.size() - 1)] = fuzz_byte(rng);
      break;
    case 2: {
      const std::size_t at = pos(s.size());
      const std::size_t n = 1 + rng.uniform_int(std::uint64_t{4});
      for (std::size_t k = 0; k < n; ++k) s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), fuzz_byte(rng));
      break;
    }
    case 3:
      if (!s.empty()) {
        const std::size_t at = pos(s.size() - 1);
        s.erase(at, 1 + rng.uniform_int(std::uint64_t{8}));
      }
      break;
    case 4:
      s.resize(pos(s.size()));
      break;
    case 5:
      s = s.substr(0, pos(s.size())) + donor.substr(pos(donor.size()));
      break;
    default: {
      const std::size_t from = pos(s.size());
      const std::string chunk = s.substr(from, rng.uniform_int(std::uint64_t{32}));
      s.insert(pos(s.size()), chunk);
      break;
    }
  }
}

TEST(JsonFuzzTest, WriterSeedsParseAndWriteBackToAFixedPoint) {
  for (const std::string& seed : writer_seeds()) {
    EXPECT_TRUE(check_input(seed)) << seed;
  }
}

TEST(JsonFuzzTest, MutatedInputsParseOrReturnNullopt) {
  Rng rng(0x150f022);
  std::vector<std::string> corpus = writer_seeds();
  for (int i = 0; i < 16; ++i) {
    corpus.push_back(random_bytes(rng, rng.uniform_int(std::uint64_t{200})));
  }

  constexpr int kMutations = 40'000;
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string input = corpus[rng.uniform_int(std::uint64_t{corpus.size()})];
    const std::string& donor = corpus[rng.uniform_int(std::uint64_t{corpus.size()})];
    const std::uint64_t rounds = 1 + rng.uniform_int(std::uint64_t{4});
    for (std::uint64_t r = 0; r < rounds; ++r) mutate(rng, input, donor);
    SCOPED_TRACE("mutation " + std::to_string(i));
    if (check_input(input)) ++accepted;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "input: " << json_quote(input);
      return;
    }
  }
  // The mutator must keep reaching the accept path, or the accessor checks
  // above cover nothing.
  EXPECT_GT(accepted, kMutations / 100);
}

TEST(JsonFuzzTest, QuoteRoundTripsRandomBytes) {
  Rng rng(0x9e0);
  for (int i = 0; i < 20'000; ++i) {
    const std::string s = random_bytes(rng, rng.uniform_int(std::uint64_t{64}));
    const std::string quoted = json_quote(s);
    const std::optional<JsonValue> value = JsonValue::parse(quoted);
    ASSERT_TRUE(value.has_value()) << quoted;
    ASSERT_EQ(value->as_string(), std::optional<std::string_view>(s)) << quoted;
  }
}

TEST(JsonFuzzTest, NestingBoundIsSixtyFiveArrays) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(check_input(nested(65)));
  EXPECT_FALSE(JsonValue::parse(nested(66)).has_value());
  // Far past the bound: rejected at the bound, not by exhausting the stack.
  EXPECT_FALSE(JsonValue::parse(std::string(1'000'000, '[')).has_value());
}

}  // namespace
}  // namespace snd::util
