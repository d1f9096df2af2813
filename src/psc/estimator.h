// Point estimation for PSC: inverts the two distortions between the true
// union cardinality and the decrypted non-identity count —
//   1. binomial noise: each CP added noise_bits Bernoulli(1/2) ones
//      (expected total_noise_bits/2);
//   2. hash collisions: n distinct items occupy
//      E[occ] = b·(1 − (1 − 1/b)^n) of b bins.
// Exact confidence intervals (the paper's §3.3 dynamic-programming
// algorithm) live in stats/psc_ci.h; this header is the cheap point
// estimate used inline by deployments.
#pragma once

#include <cstdint>

namespace tormet::psc {

struct cardinality_estimate {
  std::uint64_t raw_count = 0;     // decrypted non-identity bins+noise slots
  double expected_noise = 0.0;     // total_noise_bits / 2
  double occupied = 0.0;           // noise-corrected occupied bins
  double cardinality = 0.0;        // collision-corrected item count
};

/// Point estimate from a decrypted count. `bins` must be >= 2.
[[nodiscard]] cardinality_estimate estimate_cardinality(
    std::uint64_t raw_count, std::uint64_t bins, std::uint64_t total_noise_bits);

}  // namespace tormet::psc
