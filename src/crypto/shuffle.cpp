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

sha256_digest digest_encoded_ciphertexts(std::span<const byte_buffer> encoded) {
  sha256_hasher h;
  h.update("tormet.shuffle.ciphertexts.v1");
  for (const auto& enc : encoded) {
    h.update_framed(enc);
  }
  return h.finish();
}

sha256_digest digest_ciphertexts(const elgamal& scheme,
                                 std::span<const elgamal_ciphertext> cts) {
  sha256_hasher h;
  h.update("tormet.shuffle.ciphertexts.v1");
  for (const auto& ct : cts) {
    const byte_buffer enc = scheme.encode(ct);
    h.update_framed(enc);
  }
  return h.finish();
}

sha256_digest permutation_commitment(byte_view seed,
                                     std::span<const std::uint32_t> perm) {
  sha256_hasher commit;
  commit.update("tormet.shuffle.commitment.v1");
  commit.update_framed(seed);
  for (const auto idx : perm) {
    const std::uint8_t le[4] = {
        static_cast<std::uint8_t>(idx), static_cast<std::uint8_t>(idx >> 8),
        static_cast<std::uint8_t>(idx >> 16), static_cast<std::uint8_t>(idx >> 24)};
    commit.update(byte_view{le, 4});
  }
  return commit.finish();
}

namespace {

[[nodiscard]] std::vector<elgamal_ciphertext> apply_permutation(
    std::span<const elgamal_ciphertext> input,
    std::span<const std::uint32_t> perm) {
  std::vector<elgamal_ciphertext> out;
  out.reserve(input.size());
  for (const auto idx : perm) out.push_back(input[idx]);
  return out;
}

}  // namespace

std::vector<elgamal_ciphertext> shuffle_and_rerandomize(
    const batch_engine& engine, const group_element& joint_pub,
    std::vector<elgamal_ciphertext> input, secure_rng& rng,
    shuffle_opening* opening) {
  std::vector<std::uint32_t> perm = random_permutation(input.size(), rng);
  byte_buffer seed(32);
  rng.fill(seed);
  std::vector<elgamal_ciphertext> permuted;
  permuted.reserve(input.size());
  for (const auto idx : perm) permuted.push_back(std::move(input[idx]));
  input = {};
  std::vector<elgamal_ciphertext> output = engine.rerandomize_batch(
      joint_pub, permuted, batch_engine::derive_seed(rng));
  if (opening != nullptr) {
    opening->permutation = std::move(perm);
    opening->seed = std::move(seed);
  }
  return output;
}

shuffle_result shuffle_and_rerandomize_encoded(
    const batch_engine& engine, const group_element& joint_pub,
    std::span<const elgamal_ciphertext> input,
    std::span<const byte_buffer> input_encoded, secure_rng& rng,
    shuffle_transcript& transcript, shuffle_opening* opening) {
  expects(input.size() == input_encoded.size(),
          "input and encoded input must have equal length");
  shuffle_opening drawn;
  shuffle_result result;
  result.output = shuffle_and_rerandomize(
      engine, joint_pub,
      std::vector<elgamal_ciphertext>(input.begin(), input.end()), rng, &drawn);
  result.output_encoded = engine.encode_batch(result.output);

  transcript.input_digest = digest_encoded_ciphertexts(input_encoded);
  transcript.output_digest = digest_encoded_ciphertexts(result.output_encoded);
  transcript.commitment = permutation_commitment(drawn.seed, drawn.permutation);

  if (opening != nullptr) *opening = std::move(drawn);
  return result;
}

bool verify_shuffle_structure(const elgamal& scheme,
                              std::span<const elgamal_ciphertext> input,
                              std::span<const elgamal_ciphertext> output,
                              const shuffle_transcript& transcript) {
  if (input.size() != output.size()) return false;
  if (digest_ciphertexts(scheme, input) != transcript.input_digest) return false;
  if (digest_ciphertexts(scheme, output) != transcript.output_digest) return false;
  return true;
}

bool verify_shuffle_opening(const elgamal& scheme, const scalar& joint_secret,
                            std::span<const elgamal_ciphertext> input,
                            std::span<const elgamal_ciphertext> output,
                            const shuffle_transcript& transcript,
                            const shuffle_opening& opening) {
  if (!verify_shuffle_structure(scheme, input, output, transcript)) return false;
  if (opening.permutation.size() != input.size()) return false;

  // Commitment check.
  if (permutation_commitment(opening.seed, opening.permutation) !=
      transcript.commitment) {
    return false;
  }

  // Bijection check.
  std::vector<bool> seen(input.size(), false);
  for (const auto idx : opening.permutation) {
    if (idx >= input.size() || seen[idx]) return false;
    seen[idx] = true;
  }

  // Plaintext-equality check (auditor role: needs the joint secret). Both
  // vectors decrypt through the batch path — one pass each instead of
  // 2n serial strip-and-subtract calls.
  const auto& grp = scheme.grp();
  const std::vector<elgamal_ciphertext> permuted =
      apply_permutation(input, opening.permutation);
  const std::vector<group_element> expected =
      scheme.decrypt_batch(joint_secret, permuted);
  const std::vector<group_element> actual =
      scheme.decrypt_batch(joint_secret, output);
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (!grp.equal(expected[i], actual[i])) return false;
  }
  return true;
}

}  // namespace tormet::crypto
