#include "util/rng.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace gw::util {

ZipfSampler::ZipfSampler(std::size_t n, double s) : n_(n) {
  GW_CHECK(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
  cdf_.resize(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
  // The CDF is non-decreasing, so are the buckets of its values. A rank
  // whose CDF value is >= u has a bucket >= bucket(u), so guide_[bucket(u)]
  // never passes the lower_bound rank of u, whatever the rounding of u * n.
  guide_.resize(n);
  std::size_t rank = 0;
  for (std::size_t j = 0; j < n; ++j) {
    while (rank + 1 < n && bucket(cdf_[rank]) < j) ++rank;
    guide_[j] = static_cast<std::uint32_t>(rank);
  }
}

std::size_t ZipfSampler::rank_of(double u) const {
  std::size_t rank = guide_[bucket(u)];
  while (rank + 1 < n_ && cdf_[rank] < u) ++rank;
  return rank;
}

}  // namespace gw::util
