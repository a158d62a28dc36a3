// Deterministic random number generation.
//
// All workload generators in this repo are seeded so every test and bench is
// bit-reproducible. Rng is xoshiro256** (public-domain algorithm by
// Blackman & Vigna) seeded via splitmix64.
#pragma once

#include <cstdint>
#include <vector>

namespace gw::util {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  result_type operator()() { return next(); }

  // Uniform integer in [0, bound), bound > 0. Uses Lemire's multiply-shift
  // rejection-free mapping (slight modulo bias is irrelevant for workloads).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Fork a statistically independent stream (e.g. per node, per split).
  Rng fork(std::uint64_t stream_id) {
    std::uint64_t sm = next() ^ (stream_id * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(sm));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

// Zipf-distributed sampler over ranks 1..n with exponent s. Used to model
// word frequencies (WordCount) and URL popularity (PageviewCount); both of
// the paper's text inputs are heavy-tailed. Precomputes the CDF and a
// Chen-Asau guide table over it: O(1) expected time per sample.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  // Returns a rank in [0, n).
  std::size_t sample(Rng& rng) const { return rank_of(rng.uniform()); }

  // The rank for a uniform draw u in [0, 1): the first rank whose CDF is
  // >= u (std::lower_bound over the CDF), or n-1 if there is none.
  std::size_t rank_of(double u) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  // Guide bucket of a value in [0, 1]; monotone in u, so a bucket's first
  // rank is a lower bound for the rank of every u in it.
  std::size_t bucket(double u) const {
    const auto b = static_cast<std::size_t>(u * static_cast<double>(n_));
    return b < n_ ? b : n_ - 1;
  }

  std::size_t n_;
  std::vector<double> cdf_;
  // guide_[j]: the first rank whose CDF value falls in bucket >= j.
  std::vector<std::uint32_t> guide_;
};

}  // namespace gw::util
