#include "src/psc/estimator.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace tormet::psc {

cardinality_estimate estimate_cardinality(std::uint64_t raw_count,
                                          std::uint64_t bins,
                                          std::uint64_t total_noise_bits) {
  expects(bins >= 2, "need at least two bins");
  cardinality_estimate e;
  e.raw_count = raw_count;
  e.expected_noise = static_cast<double>(total_noise_bits) / 2.0;

  const double b = static_cast<double>(bins);
  e.occupied = std::clamp(static_cast<double>(raw_count) - e.expected_noise, 0.0,
                          b - 1.0);  // b-1: full occupancy has no finite inverse

  // Invert E[occ] = b (1 - (1-1/b)^n):  n = ln(1 - occ/b) / ln(1 - 1/b).
  e.cardinality = std::log(1.0 - e.occupied / b) / std::log(1.0 - 1.0 / b);
  if (e.cardinality < 0.0) e.cardinality = 0.0;
  return e;
}

}  // namespace tormet::psc
