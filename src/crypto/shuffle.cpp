#include "src/crypto/shuffle.h"

#include <algorithm>

#include "src/util/check.h"

namespace tormet::crypto {

std::vector<std::uint32_t> random_permutation(std::size_t n, secure_rng& rng) {
  expects(n <= 0xffffffffULL, "permutation too large for 32-bit indices");
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  // Fisher–Yates with unbiased index draws.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<elgamal_ciphertext> shuffle_and_rerandomize(
    const batch_engine& engine, const group_element& joint_pub,
    std::vector<elgamal_ciphertext> input, secure_rng& rng) {
  const std::vector<std::uint32_t> perm = random_permutation(input.size(), rng);
  std::vector<elgamal_ciphertext> permuted;
  permuted.reserve(input.size());
  for (const auto idx : perm) permuted.push_back(std::move(input[idx]));
  input = {};
  return engine.rerandomize_batch(joint_pub, permuted,
                                  batch_engine::derive_seed(rng));
}

}  // namespace tormet::crypto
