// Unit and property tests for gw::util.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/compress.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace gw::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng root(3);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Zipf, RanksAreValidAndSkewed) {
  Rng rng(5);
  ZipfSampler zipf(1000, 1.0);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    const std::size_t r = zipf.sample(rng);
    ASSERT_LT(r, 1000u);
    counts[r]++;
  }
  // Rank 0 must dominate rank 99 by roughly 100x under s=1.
  EXPECT_GT(counts[0], 20 * std::max(counts[99], 1));
}

TEST(Zipf, HighExponentConcentrates) {
  Rng rng(6);
  ZipfSampler zipf(100, 2.5);
  int head = 0;
  for (int i = 0; i < 10000; ++i) head += (zipf.sample(rng) < 3);
  EXPECT_GT(head, 9000);
}

// The CDF exactly as ZipfSampler builds it, for an independent
// std::lower_bound reference.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (auto& v : cdf) v /= total;
  return cdf;
}

std::size_t lower_bound_rank(const std::vector<double>& cdf, double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<std::size_t>(it - cdf.begin());
}

TEST(Zipf, SampleIsTheLowerBoundRank) {
  // Every generated input depends on these ranks: a faster search must
  // return exactly the rank a binary search over the CDF returns.
  const std::vector<std::pair<std::size_t, double>> params = {
      {1, 1.0}, {2, 0.5}, {10, 1.0}, {2000, 0.9}, {20000, 1.05},
      {30000, 1.1}, {100, 2.5}};
  for (const auto& [n, s] : params) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfSampler zipf(n, s);
    const std::vector<double> cdf = zipf_cdf(n, s);
    Rng a(n * 31 + 7);
    Rng b(n * 31 + 7);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::size_t want = lower_bound_rank(cdf, b.uniform());
      ASSERT_EQ(zipf.sample(a), want) << "draw " << i;
    }
  }
}

TEST(Zipf, RankOfMatchesLowerBoundAtEveryEdge) {
  // Draws rarely land exactly on a CDF value or a guide-bucket edge; probe
  // those points, their neighbours, and both ends of [0, 1).
  for (const auto& [n, s] : std::vector<std::pair<std::size_t, double>>{
           {1, 1.0}, {3, 0.0}, {7, 1.0}, {2000, 0.9}, {20000, 1.05}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfSampler zipf(n, s);
    const std::vector<double> cdf = zipf_cdf(n, s);
    std::vector<double> probes = {0.0, 0x1.fffffffffffffp-1,
                                  std::nextafter(0.0, 1.0)};
    for (double c : cdf) {
      probes.insert(probes.end(), {c, std::nextafter(c, 0.0),
                                   std::nextafter(c, 2.0)});
    }
    for (std::size_t j = 0; j <= n; ++j) {
      const double edge = static_cast<double>(j) / static_cast<double>(n);
      probes.insert(probes.end(), {edge, std::nextafter(edge, 0.0),
                                   std::nextafter(edge, 2.0)});
    }
    for (double u : probes) {
      if (u < 0.0 || u >= 1.0) continue;
      ASSERT_EQ(zipf.rank_of(u), lower_bound_rank(cdf, u)) << "u=" << u;
    }
  }
}

TEST(Hash, Fnv1aStable) {
  // Known FNV-1a vectors.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ULL);
}

TEST(Hash, Mix64Avalanches) {
  // Flipping one input bit should flip ~half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = mix64(0x123456789abcdef0ULL);
    const std::uint64_t b = mix64(0x123456789abcdef0ULL ^ (1ULL << bit));
    total += __builtin_popcountll(a ^ b);
  }
  EXPECT_GT(total / 64, 20);
  EXPECT_LT(total / 64, 44);
}

TEST(Bytes, PrimitivesRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f32(1.5f);
  w.put_f64(-2.25);
  w.put_str("hello world");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_f32(), 1.5f);
  EXPECT_EQ(r.get_f64(), -2.25);
  EXPECT_EQ(r.get_str(), "hello world");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTripBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0,    1,    127,   128,    16383, 16384,
                                  1u << 21, 1ull << 35, ~0ULL};
  for (auto v : values) w.put_varint(v);
  ByteReader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintEncodingIsCompact) {
  ByteWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(128);
  EXPECT_EQ(w.size(), 3u);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.buffer());
  r.get_u32();
  EXPECT_THROW(r.get_u8(), Error);
}

TEST(Compress, EmptyInput) {
  Bytes c = lz_compress(nullptr, 0);
  Bytes d = lz_decompress(c);
  EXPECT_TRUE(d.empty());
}

TEST(Compress, ShortIncompressibleRoundTrip) {
  Bytes in = {1, 2, 3};
  EXPECT_EQ(lz_decompress(lz_compress(in)), in);
}

TEST(Compress, RepetitiveInputShrinks) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "the quick brown fox ";
  Bytes in(s.begin(), s.end());
  Bytes c = lz_compress(in);
  EXPECT_LT(c.size(), in.size() / 4);
  EXPECT_EQ(lz_decompress(c), in);
}

TEST(Compress, RandomDataRoundTrip) {
  Rng rng(99);
  Bytes in(100000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  Bytes c = lz_compress(in);
  EXPECT_EQ(lz_decompress(c), in);
}

// Property sweep: round-trip across sizes and redundancy mixes.
class CompressRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompressRoundTrip, Holds) {
  const auto [size, redundancy_pct] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) * 131 + redundancy_pct);
  Bytes in;
  in.reserve(size);
  while (in.size() < static_cast<std::size_t>(size)) {
    if (static_cast<int>(rng.below(100)) < redundancy_pct && in.size() > 16) {
      // Copy an earlier run to create matchable redundancy.
      const std::size_t start = rng.below(in.size() - 8);
      const std::size_t len = 4 + rng.below(32);
      for (std::size_t i = 0; i < len && in.size() < (std::size_t)size; ++i) {
        in.push_back(in[start + (i % 8)]);
      }
    } else {
      in.push_back(static_cast<std::uint8_t>(rng.next()));
    }
  }
  EXPECT_EQ(lz_decompress(lz_compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CompressRoundTrip,
    ::testing::Combine(::testing::Values(1, 5, 64, 1000, 65537, 300000),
                       ::testing::Values(0, 50, 95)));

TEST(Compress, CorruptInputThrows) {
  std::string s(1000, 'x');
  Bytes c = lz_compress(s.data(), s.size());
  c.resize(c.size() / 2);
  EXPECT_THROW(lz_decompress(c), Error);
}

// A key-sorted run of TeraSort-shaped pairs (10-byte printable key, 90-byte
// payload), length-prefixed as the store frames them: about 2 KiB.
Bytes terasort_run(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> keys(20);
  for (auto& k : keys) {
    for (int i = 0; i < 10; ++i) {
      k.push_back(static_cast<char>(' ' + rng.below(95)));
    }
  }
  std::sort(keys.begin(), keys.end());
  ByteWriter w;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    std::string payload = std::to_string(r * 7919);
    payload.resize(90, 'x');
    w.put_varint(keys[r].size());
    w.put_bytes(keys[r].data(), keys[r].size());
    w.put_varint(payload.size());
    w.put_bytes(payload.data(), payload.size());
  }
  return w.take();
}

// Space-separated words drawn from a Zipf-ranked vocabulary.
Bytes zipf_text(std::size_t bytes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> vocab(5000);
  for (auto& w : vocab) {
    const std::size_t len = 2 + rng.below(10);
    for (std::size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.below(26)));
    }
  }
  const ZipfSampler zipf(vocab.size(), 1.05);
  Bytes text;
  while (text.size() < bytes) {
    const std::string& w = vocab[zipf.sample(rng)];
    text.insert(text.end(), w.begin(), w.end());
    text.push_back(' ');
  }
  text.resize(bytes);
  return text;
}

// lz_compress output is part of every simulated cost (stored and shipped
// bytes), so it is pinned byte for byte. The inputs go through one thread
// back to back, and the last repeats the first: its output must not depend
// on what was compressed before it.
TEST(Compress, OutputIsPinned) {
  const Bytes run = terasort_run(7);
  ASSERT_GT(run.size(), 2000u);
  ASSERT_LT(run.size(), 2200u);
  const Bytes inputs[] = {Bytes{}, Bytes{1, 2, 3}, run,
                          zipf_text((64 << 10) + 1, 11),
                          zipf_text(300 << 10, 12), run};
  const std::pair<std::size_t, std::uint64_t> expected[] = {
      {1, 12638153115695167455ull},     {6, 17764745573510069415ull},
      {432, 17069010471756589991ull},   {40911, 1851446023422353255ull},
      {168404, 4110049883680659840ull}, {432, 17069010471756589991ull}};
  for (std::size_t i = 0; i < std::size(inputs); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const Bytes packed = lz_compress(inputs[i]);
    EXPECT_EQ(packed.size(), expected[i].first);
    EXPECT_EQ(fnv1a(packed.data(), packed.size()), expected[i].second);
    EXPECT_EQ(lz_decompress(packed), inputs[i]);
  }
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi, std::size_t) {
      long local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
      sum += local;
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

}  // namespace
}  // namespace gw::util
