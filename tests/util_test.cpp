// Unit tests for util: RNG streams and distributions, online statistics,
// tables, CSV, the artifact writer's formatting contract, CLI parsing,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "harness/artifacts.hpp"
#include "util/artifact_writer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace wsched {
namespace {

TEST(Time, RoundTripSeconds) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(-3.0), 0) << "negative durations clamp to zero";
}

TEST(Time, SubNanosecondRounding) {
  EXPECT_EQ(from_seconds(1.4e-9), 1);
  EXPECT_EQ(from_seconds(0.6e-9), 1);
  EXPECT_EQ(from_seconds(0.4e-9), 0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123, 0), b(123, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Rng a(123, 0), b(123, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SeedsDiffer) {
  Rng a(1, 0), b(2, 0);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_int(17), 17u);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(17);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.uniform_int(8)];
  for (int c : counts) EXPECT_GT(c, 800);  // expect ~1000 each
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMeanParameterization) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 400000; ++i)
    stats.add(rng.lognormal_mean(100.0, 1.0));
  EXPECT_NEAR(stats.mean(), 100.0, 3.0);
}

TEST(Rng, BoundedParetoRange) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(1.1, 1.0, 1000.0);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 1000.0 + 1e-9);
  }
}

TEST(Rng, BernoulliFraction) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMean) {
  Rng rng(43);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RunningStats, Empty) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(47);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10, 3);
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Ewma, FirstSampleExact) {
  Ewma e(0.1);
  EXPECT_FALSE(e.primed());
  e.add(42.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  e.add(0.0);
  for (int i = 0; i < 200; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(PercentileSampler, ExactWhenUnderCapacity) {
  PercentileSampler sampler(1000);
  for (int i = 1; i <= 100; ++i) sampler.add(i);
  EXPECT_NEAR(sampler.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(sampler.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(sampler.percentile(0.5), 50.5, 1e-9);
}

TEST(PercentileSampler, ReservoirApproximation) {
  PercentileSampler sampler(4096);
  Rng rng(53);
  for (int i = 0; i < 100000; ++i) sampler.add(rng.uniform());
  EXPECT_NEAR(sampler.percentile(0.9), 0.9, 0.03);
  EXPECT_EQ(sampler.count(), 100000u);
}

/// Sort-then-interpolate reference for PercentileSampler: the same
/// reservoir (Algorithm R on the same splitmix64 stream), fully sorted
/// before every query.
class ReferenceSampler {
 public:
  ReferenceSampler(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_state_(seed) {}

  void add(double x) {
    ++seen_;
    if (sample_.size() < capacity_) {
      sample_.push_back(x);
      return;
    }
    const std::uint64_t slot = splitmix64(rng_state_) % seen_;
    if (slot < capacity_) sample_[static_cast<std::size_t>(slot)] = x;
  }

  double percentile(double q) const {
    if (sample_.empty()) return 0.0;
    std::vector<double> sorted = sample_;
    std::sort(sorted.begin(), sorted.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

 private:
  std::size_t capacity_;
  std::uint64_t rng_state_;
  std::size_t seen_ = 0;
  std::vector<double> sample_;
};

/// Feeds both samplers `n` values and compares every quantile bit for bit,
/// several times over in shuffled query orders.
void expect_percentiles_exact(std::size_t capacity, std::size_t n,
                              std::uint64_t seed, bool duplicates) {
  PercentileSampler sampler(capacity, seed);
  ReferenceSampler reference(capacity, seed);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = duplicates
                         ? static_cast<double>(rng.uniform_int(5)) * 0.25
                         : rng.uniform() * 10.0;
    sampler.add(x);
    reference.add(x);
  }
  std::vector<double> qs = {0.0, 0.5, 0.95, 0.99, 1.0};
  for (int round = 0; round < 4; ++round) {
    for (const double q : qs)
      EXPECT_EQ(sampler.percentile(q), reference.percentile(q))
          << "capacity " << capacity << " n " << n << " seed " << seed
          << " q " << q << " round " << round;
    std::reverse(qs.begin(), qs.end());
    if (round == 1) std::rotate(qs.begin(), qs.begin() + 2, qs.end());
  }
}

TEST(PercentileSampler, SelectionMatchesSortBitForBit) {
  for (const std::size_t n : {1u, 2u, 3u, 10u, 11u, 1000u, 1001u}) {
    for (const std::uint64_t seed : {3ull, 17ull}) {
      expect_percentiles_exact(4096, n, seed, false);
      expect_percentiles_exact(4096, n, seed, true);
    }
  }
}

TEST(PercentileSampler, SelectionExactAfterReservoirOverflow) {
  for (const std::uint64_t seed : {5ull, 29ull}) {
    expect_percentiles_exact(64, 5000, seed, false);
    expect_percentiles_exact(64, 5000, seed, true);
    expect_percentiles_exact(257, 20000, seed, false);
  }
}

TEST(PercentileSampler, QueriesBetweenAddsStayExact) {
  // A query partitions the scratch copy; later adds must refresh it.
  PercentileSampler sampler(128, 9);
  ReferenceSampler reference(128, 9);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    sampler.add(x);
    reference.add(x);
    if (i % 37 == 0) {
      EXPECT_EQ(sampler.percentile(0.95), reference.percentile(0.95));
      EXPECT_EQ(sampler.percentile(0.5), reference.percentile(0.5));
    }
  }
  EXPECT_EQ(sampler.percentile(0.99), reference.percentile(0.99));
}

TEST(Histogram, Binning) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(9.999);
  h.add(10.0);
  h.add(5.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_high(5), 6.0);
}

TEST(Histogram, AsciiNonEmpty) {
  Histogram h(0.0, 4.0, 4);
  for (int i = 0; i < 10; ++i) h.add(1.5);
  const std::string art = h.ascii();
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(20.25, 2);
  const std::string out = t.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("20.25"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, CellAccess) {
  Table t({"a", "b"});
  t.row().cell(static_cast<long long>(7)).cell_percent(0.683);
  EXPECT_EQ(t.at(0, 0), "7");
  EXPECT_EQ(t.at(0, 1), "68.3%");
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::out_of_range);
}

TEST(Table, NoHeadersThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Percent, Formatting) {
  EXPECT_EQ(percent(0.68), "68.0%");
  EXPECT_EQ(percent(0.125, 2), "12.50%");
  EXPECT_EQ(fixed(3.14159, 3), "3.142");
}

TEST(Csv, EscapePlain) { EXPECT_EQ(csv_escape("abc"), "abc"); }

TEST(Csv, EscapeSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTrip) {
  const std::string line = csv_escape("plain") + ',' +
                           csv_escape("with,comma") + ',' +
                           csv_escape("with \"quote\"");
  const auto fields = parse_csv_line(line);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with \"quote\"");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

// --- Artifact writer: byte-for-byte equivalence with printf ---

std::string printf_format(const char* format, double value) {
  // "%.4f" of -DBL_MAX is 315 characters.
  char buf[400];
  const int n = std::snprintf(buf, sizeof buf, format, value);
  return std::string(buf, static_cast<std::size_t>(n));
}

/// The canonical number formatting as it was written with llround and
/// snprintf, before the artifact writer took it over.
std::string snprintf_format_number(double value) {
  if (std::isfinite(value) && value == std::llround(value) &&
      std::abs(value) < 1e15) {
    return std::to_string(std::llround(value));
  }
  return printf_format("%.10g", value);
}

std::string general_of(double value) {
  std::string out;
  append_general(out, value);
  return out;
}

std::string fixed4_of(double value) {
  std::string out;
  append_fixed4(out, value);
  return out;
}

std::string number_of(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

void expect_printf_equivalent(double value) {
  EXPECT_EQ(general_of(value), printf_format("%.10g", value)) << value;
  EXPECT_EQ(fixed4_of(value), printf_format("%.4f", value)) << value;
  EXPECT_EQ(number_of(value), snprintf_format_number(value)) << value;
  EXPECT_EQ(harness::format_number(value), number_of(value)) << value;
}

TEST(ArtifactWriter, EdgeCasesMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double cases[] = {
      0.0, -0.0,
      // Subnormals: the smallest, the largest, and one in between.
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), 3.5e-310, DBL_MIN,
      // The integral cutoff of the canonical number format.
      1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 1,
      std::nextafter(1e15, 0.0), std::nextafter(1e15, 2e15),
      999999999999999.5, 9007199254740992.0, 1e16,
      // Exact binary ties at the last printed digit: "%.10g" of 2^-15
      // (3.0517578125e-05) and "%.4f" of k/32 sit exactly halfway.
      0.5, 1.5, 2.5, -2.5, 0.03125, 0.09375, -0.15625, 0.65625,
      3.0517578125e-05, 12345678905.0, 12345678915.0, 1.00000000005,
      0.1, 1.0 / 3.0, 2.0 / 3.0, 123456.789, -0.00001, 0.00005,
      // Large and non-finite values.
      1e39, 1e300, DBL_MAX, -DBL_MAX, inf, -inf, nan, -nan};
  for (const double value : cases) expect_printf_equivalent(value);
}

TEST(ArtifactWriter, RandomDoublesMatchPrintf) {
  Rng rng(2024);
  for (int i = 0; i < 1000000; ++i) {
    double value;
    switch (i % 4) {
      case 0: {  // any bit pattern: every exponent, subnormals, NaNs
        const std::uint64_t bits = rng();
        std::memcpy(&value, &bits, sizeof value);
        break;
      }
      case 1: value = rng.uniform(-1.0, 1.0); break;
      case 2: value = rng.exponential(1.0) * 1e6; break;
      default:  // short decimals, where ties and integral values live
        value = (static_cast<double>(rng.uniform_int(4000001)) - 2000000.0) /
                std::pow(10.0, static_cast<double>(rng.uniform_int(7)));
    }
    const std::string general = general_of(value);
    const std::string fixed = fixed4_of(value);
    const std::string number = number_of(value);
    if (general != printf_format("%.10g", value) ||
        fixed != printf_format("%.4f", value) ||
        number != snprintf_format_number(value)) {
      expect_printf_equivalent(value);
      FAIL() << "first mismatch at sample " << i;
    }
  }
}

TEST(ArtifactWriter, LongFixedValuesAreNeverTruncated) {
  // "%.4f" of these needs more than the writer's small buffer; the
  // value_too_large retry must produce every digit.
  for (const double value : {1e36, 1e39, -1e100, 1e300, DBL_MAX, -DBL_MAX}) {
    const std::string expected = printf_format("%.4f", value);
    ASSERT_GT(expected.size(), 40u);
    EXPECT_EQ(fixed4_of(value), expected);
  }
  EXPECT_EQ(fixed4_of(-DBL_MAX).size(), 315u);
}

TEST(ArtifactWriter, IntegersAndHex) {
  std::string out;
  append_int(out, std::numeric_limits<std::int64_t>::min());
  out += ' ';
  append_int(out, 0);
  out += ' ';
  append_hex(out, 0xbeefULL);
  out += ' ';
  append_hex(out, 0);
  EXPECT_EQ(out, "-9223372036854775808 0 beef 0");
}

TEST(ArtifactWriter, EscapingMatchesTheWrappers) {
  std::string json;
  // Control characters, including an embedded NUL, escape as \u00XX.
  append_json_escaped(json,
                      std::string_view("a\"b\\c\n\r\t\x01\x1f" "d\0", 12));
  EXPECT_EQ(json, "a\\\"b\\\\c\\n\\r\\t\\u0001\\u001fd\\u0000");
  EXPECT_EQ(harness::json_escape("plain"), "plain");
  std::string csv;
  append_csv_field(csv, "x,\"y\"");
  EXPECT_EQ(csv, "\"x,\"\"y\"\"\"");
  EXPECT_EQ(csv_escape("line\rbreak"), "\"line\rbreak\"");
}

/// Records the size of every chunk the writer hands to the stream.
class ChunkRecorder : public std::streambuf {
 public:
  std::string bytes;
  std::size_t largest_chunk = 0;
  std::size_t chunks = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes.append(s, static_cast<std::size_t>(n));
    largest_chunk = std::max(largest_chunk, static_cast<std::size_t>(n));
    ++chunks;
    return n;
  }
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) bytes.push_back(static_cast<char>(ch));
    return ch;
  }
};

TEST(ArtifactWriter, FlushesInBoundedChunks) {
  ChunkRecorder sink;
  std::ostream stream(&sink);
  std::string expected;
  {
    ArtifactWriter writer(stream);
    for (int i = 0; i < 100000; ++i) {
      writer.integer(i).raw(',').number(i * 0.25).raw('\n');
      expected += std::to_string(i) + ',' + harness::format_number(i * 0.25) +
                  '\n';
    }
  }
  EXPECT_EQ(sink.bytes, expected);
  EXPECT_GT(sink.chunks, expected.size() / ArtifactWriter::kFlushBytes);
  // Each flush carries at most one append past the threshold.
  EXPECT_LE(sink.largest_chunk, ArtifactWriter::kFlushBytes + 32);
}

TEST(Cli, FlagsAndPositional) {
  // Note: a bare flag followed by a non-flag token consumes it as a value
  // (--beta 7); a trailing bare flag is boolean.
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7",
                        "input.txt", "--verbose"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get("alpha", ""), "3");
  EXPECT_EQ(args.get("beta", ""), "7");
  EXPECT_EQ(args.get("verbose", ""), "1");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, RepeatedFlagsAccumulate) {
  const char* argv[] = {"prog", "--filter", "trace=UCB", "--filter=p=32",
                        "--filter", "lambda=1000"};
  CliArgs args(6, argv);
  const auto all = args.get_all("filter");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "trace=UCB");
  EXPECT_EQ(all[1], "p=32");
  EXPECT_EQ(all[2], "lambda=1000");
  // Scalar getters see the last occurrence.
  EXPECT_EQ(args.get("filter", ""), "lambda=1000");
}

TEST(Cli, RepeatedScalarLastWins) {
  const char* argv[] = {"prog", "--jobs", "2", "--jobs=8"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get("jobs", ""), "8");
  EXPECT_EQ(args.get_all("jobs").size(), 2u);
}

TEST(Cli, EqualsInsideValuePreserved) {
  // Only the first '=' splits: the value itself may contain '='.
  const char* argv[] = {"prog", "--filter=scheduler=M/S"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get("filter", ""), "scheduler=M/S");
}

TEST(Cli, EmptyValueAfterEquals) {
  const char* argv[] = {"prog", "--out="};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.has("out"));
  EXPECT_EQ(args.get("out", "fallback"), "");
}

TEST(Cli, EmptyFlagNameThrows) {
  const char* argv[] = {"prog", "--=value"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(Cli, GetAllAbsentIsEmpty) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_TRUE(args.get_all("filter").empty());
}

TEST(Cli, BareDoubleDashThrows) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(Cli, FlagNamesEnumerated) {
  const char* argv[] = {"prog", "--b=2", "--a=1"};
  CliArgs args(3, argv);
  const auto names = args.flag_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order: sorted
  EXPECT_EQ(names[1], "b");
}

TEST(Cli, StrictParsersRejectMalformedValues) {
  for (const char* bad : {"0.5abc", "abc", "", " 1", "1e999"})
    EXPECT_THROW(parse_double(bad), std::invalid_argument) << bad;
  for (const char* bad : {"2x", "abc", "", "1.5", "99999999999999999999"})
    EXPECT_THROW(parse_int(bad), std::invalid_argument) << bad;
  for (const char* bad : {"ture", "", "True", "2"})
    EXPECT_THROW(parse_bool(bad), std::invalid_argument) << bad;
}

TEST(Cli, StrictParsersAcceptWholeTokens) {
  EXPECT_DOUBLE_EQ(parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_uint("18446744073709551615"), 18446744073709551615ull);
  EXPECT_THROW(parse_uint("-1"), std::invalid_argument);
  for (const char* yes : {"1", "true", "yes", "on"}) EXPECT_TRUE(parse_bool(yes));
  for (const char* no : {"0", "false", "no", "off"}) EXPECT_FALSE(parse_bool(no));
  EXPECT_THROW(parse_bool("True"), std::invalid_argument);
}

TEST(Cli, ParseFlagsAppliesTableAndEnables) {
  double rate = 1.5;
  int count = 2;
  std::optional<double> horizon;
  std::vector<std::string> tags;
  bool layer = false;
  double knob = 0.25;
  std::vector<Flag> table = {flag("rate", rate, "r"),
                             flag("count", count, "c"),
                             flag("horizon", horizon, "h"),
                             flag("tag", tags, "t"),
                             flag("knob", knob, "k")};
  table.back().enables = &layer;

  const char* bare[] = {"prog"};
  parse_flags(CliArgs(1, bare), table);
  EXPECT_DOUBLE_EQ(rate, 1.5);
  EXPECT_FALSE(horizon.has_value());
  EXPECT_FALSE(layer);

  const char* argv[] = {"prog", "--rate=3", "--count", "7", "--horizon=9",
                        "--tag=a", "--tag=b", "--knob=0.5"};
  parse_flags(CliArgs(8, argv), table);
  EXPECT_DOUBLE_EQ(rate, 3.0);
  EXPECT_EQ(count, 7);
  EXPECT_EQ(horizon, 9.0);
  EXPECT_EQ(tags, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(knob, 0.5);
  EXPECT_TRUE(layer);
}

TEST(Cli, ParseFlagsRejectsUnknownPositionalAndMalformed) {
  double rate = 1.0;
  int count = 0;
  const std::vector<Flag> table = {flag("rate", rate, "r"),
                                   flag("count", count, "c")};
  const auto message = [&table](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    try {
      parse_flags(CliArgs(static_cast<int>(argv.size()), argv.data()), table);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::string unknown = message({"--rat=2"});
  EXPECT_NE(unknown.find("--rat"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("--rate --count"), std::string::npos) << unknown;
  EXPECT_NE(message({"stray"}).find("stray"), std::string::npos);
  EXPECT_NE(message({"--rate=abc"}).find("--rate=abc"), std::string::npos);
  EXPECT_NE(message({"--count=two"}).find("--count=two"), std::string::npos);
  EXPECT_NE(message({"--count=99999999999"}).find("out of range"),
            std::string::npos);
  EXPECT_EQ(message({"--rate=2", "--count=3"}), "accepted");
}

TEST(EnvFlag, ParsesAndFallsBack) {
  ::setenv("WSCHED_TEST_FLAG", "yes", 1);
  EXPECT_TRUE(env_flag("WSCHED_TEST_FLAG", false));
  ::setenv("WSCHED_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("WSCHED_TEST_FLAG", true));
  ::unsetenv("WSCHED_TEST_FLAG");
  EXPECT_TRUE(env_flag("WSCHED_TEST_FLAG", true));
  ::setenv("WSCHED_TEST_FLAG", "junk", 1);
  EXPECT_TRUE(env_flag("WSCHED_TEST_FLAG", true));
  ::unsetenv("WSCHED_TEST_FLAG");
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(61);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, SplitMixIsDeterministic) {
  std::uint64_t a = 42, b = 42;
  const std::uint64_t first_a = splitmix64(a);
  const std::uint64_t first_b = splitmix64(b);
  EXPECT_EQ(first_a, first_b);
  EXPECT_EQ(a, b) << "state advances identically";
  const std::uint64_t second_a = splitmix64(a);
  EXPECT_NE(first_a, second_a) << "successive outputs differ";
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelFor) {
  ThreadPool pool(3);
  std::vector<int> data(500, 0);
  parallel_for(pool, data.size(), [&](std::size_t i) {
    data[i] = static_cast<int>(i) * 2;
  });
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], static_cast<int>(i) * 2);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, TaskExceptionRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 16; ++i) pool.submit([&] { ++counter; });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failing task did not cancel the rest of the batch.
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, FirstExceptionWinsAndPoolStaysUsable) {
  ThreadPool pool(1);  // single worker: deterministic task order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait();
    FAIL() << "wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The error slot was cleared: the pool accepts and runs new work.
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace wsched
