#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "support/cancel.hpp"
#include "support/cli.hpp"
#include "support/radix_sort.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace llpmst {
namespace {

// ------------------------------------------------------------ radix sort

// A budget stops a radix sort within kScanStride records: every pass polls
// stop() once per stride of its histogram and of its scatter, and a stopped
// sort hands back every record, unordered.  10000 records take 10 polls per
// loop, so poll 3 lands in pass 1's histogram, poll 15 in its scatter and
// poll 25 in pass 2's histogram.
TEST(RadixSort, StopsWithinAStrideAndKeepsEveryRecord) {
  const std::size_t n = 10000;
  ASSERT_EQ((n + kScanStride - 1) / kScanStride, 10u);
  std::vector<std::uint64_t> input(n);
  Xoshiro256 rng(5);
  for (std::uint64_t& x : input) x = rng.next() & 0xffffffffu;
  std::vector<std::uint64_t> sorted_input = input;
  std::sort(sorted_input.begin(), sorted_input.end());
  for (const std::size_t stop_at : {3u, 15u, 25u}) {
    SCOPED_TRACE(testing::Message() << "stop at poll " << stop_at);
    std::vector<std::uint64_t> data = input;
    std::vector<std::uint64_t> scratch(n);
    std::size_t polls = 0;
    const std::span<std::uint64_t> out = lsd_radix_sort(
        std::span<std::uint64_t>(data), std::span<std::uint64_t>(scratch),
        0xffffffffu, [](std::uint64_t x) { return x; },
        [&] { return ++polls == stop_at; });
    EXPECT_EQ(polls, stop_at) << "polled again after a true answer";
    std::vector<std::uint64_t> got(out.begin(), out.end());
    EXPECT_NE(got, sorted_input);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sorted_input);
  }
}

// ---------------------------------------------------------------- random

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, MixIsStateless) {
  EXPECT_EQ(SplitMix64::mix(123), SplitMix64::mix(123));
  EXPECT_NE(SplitMix64::mix(123), SplitMix64::mix(124));
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, NextBelowStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, NextInInclusiveBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  // Degenerate range.
  EXPECT_EQ(rng.next_in(4, 4), 4u);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, BernoulliRoughlyCalibrated) {
  Xoshiro256 rng(13);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

// ---------------------------------------------------------------- stats

TEST(Stats, EmptySampleIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleSample) {
  const std::vector<double> v{5.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.median, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, KnownValues) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, OddMedian) {
  const std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(summarize(v).median, 5.0);
}

TEST(Stats, FormatDurationPicksUnits) {
  EXPECT_EQ(format_duration_ms(0.0005), "500.0 ns");
  EXPECT_EQ(format_duration_ms(0.002), "2.00 us");
  EXPECT_EQ(format_duration_ms(2.5), "2.50 ms");
  EXPECT_EQ(format_duration_ms(1500.0), "1.500 s");
}

TEST(Stats, FormatCountSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12345678), "12,345,678");
}

// ---------------------------------------------------------------- timer

TEST(Timer, ElapsedMonotone) {
  Timer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Timer, ResetRestarts) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  t.reset();
  EXPECT_LT(t.elapsed_s(), 1.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
  EXPECT_GE(t.elapsed_us(), 0.0);
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesAllFlagKinds) {
  CliParser cli("prog", "test");
  auto& i = cli.add_int("count", 1, "a count");
  auto& d = cli.add_double("ratio", 0.5, "a ratio");
  auto& s = cli.add_string("name", "x", "a name");
  auto& b = cli.add_bool("fast", false, "speed");
  const char* argv[] = {"prog",    "--count", "7",     "--ratio=0.25",
                        "--name",  "hello",   "--fast"};
  cli.parse(7, argv);
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  CliParser cli("prog", "test");
  auto& i = cli.add_int("count", 42, "a count");
  auto& b = cli.add_bool("fast", true, "speed");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(b);
}

TEST(Cli, NegatedBool) {
  CliParser cli("prog", "test");
  auto& b = cli.add_bool("fast", true, "speed");
  const char* argv[] = {"prog", "--no-fast"};
  cli.parse(2, argv);
  EXPECT_FALSE(b);
}

TEST(Cli, BoolWithExplicitValue) {
  CliParser cli("prog", "test");
  auto& b = cli.add_bool("fast", false, "speed");
  const char* argv[] = {"prog", "--fast=true"};
  cli.parse(2, argv);
  EXPECT_TRUE(b);
}

TEST(Cli, CollectsPositionals) {
  CliParser cli("prog", "test");
  cli.add_int("count", 1, "a count");
  const char* argv[] = {"prog", "alpha", "--count", "3", "beta"};
  cli.parse(5, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "alpha");
  EXPECT_EQ(cli.positional()[1], "beta");
}

TEST(Cli, UsageMentionsFlagsAndDefaults) {
  CliParser cli("prog", "description here");
  cli.add_int("count", 42, "how many");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--count"), std::string::npos);
  EXPECT_NE(u.find("42"), std::string::npos);
  EXPECT_NE(u.find("description here"), std::string::npos);
}

TEST(Cli, UnknownFlagExits) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(2), "unknown flag");
}

TEST(Cli, MalformedIntExits) {
  CliParser cli("prog", "test");
  cli.add_int("count", 1, "a count");
  const char* argv[] = {"prog", "--count", "abc"};
  EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(Cli, MissingValueExits) {
  CliParser cli("prog", "test");
  cli.add_int("count", 1, "a count");
  const char* argv[] = {"prog", "--count"};
  EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(2),
              "requires a value");
}

TEST(Cli, ParseIntList) {
  EXPECT_EQ(CliParser::parse_int_list("1,2,4,8"),
            (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(CliParser::parse_int_list("16"), (std::vector<int>{16}));
  EXPECT_TRUE(CliParser::parse_int_list("").empty());
}

}  // namespace
}  // namespace llpmst
