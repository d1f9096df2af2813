// Rerandomizing shuffle of ElGamal ciphertext vectors — the mixing step each
// PSC computation party applies before decryption so that no party can link
// decrypted bins back to data collectors or hash positions.
//
// SUBSTITUTION NOTE (see DESIGN.md §1): the deployed PSC uses a
// zero-knowledge *verifiable* shuffle. We implement the shuffle +
// rerandomization exactly, and replace the ZK proof with a hash-chain
// transcript (input digest, output digest, permutation commitment) that a
// verifier with the permutation opening can check. This preserves every
// data-flow and failure path of the protocol while keeping the proof system
// out of scope.
#pragma once

#include <cstdint>
#include <vector>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/sha256.h"
#include "src/crypto/secure_rng.h"

namespace tormet::crypto {

/// Transcript emitted alongside a shuffle.
struct shuffle_transcript {
  sha256_digest input_digest{};
  sha256_digest output_digest{};
  /// Commitment H(perm_seed) to the permutation/rerandomization opening.
  sha256_digest commitment{};
};

/// Opening a mixer can reveal to an auditor (breaks unlinkability for that
/// hop, so only used in dispute resolution / tests).
struct shuffle_opening {
  std::vector<std::uint32_t> permutation;  // output[i] = rerand(input[perm[i]])
  byte_buffer seed;                        // commitment preimage
};

/// Uniform random permutation of [0, n) (Fisher–Yates over secure bits).
[[nodiscard]] std::vector<std::uint32_t> random_permutation(std::size_t n,
                                                            secure_rng& rng);

/// Digest of a ciphertext vector (framed, order-sensitive). Encodes each
/// ciphertext; when the encodings already exist (wire messages carry them),
/// use digest_encoded_ciphertexts instead of re-serializing.
[[nodiscard]] sha256_digest digest_ciphertexts(
    const elgamal& scheme, std::span<const elgamal_ciphertext> cts);

/// Same digest, computed from pre-encoded ciphertexts.
[[nodiscard]] sha256_digest digest_encoded_ciphertexts(
    std::span<const byte_buffer> encoded);

/// Commitment H(seed ‖ permutation) binding a shuffle opening (shared by
/// the commit and verify sides).
[[nodiscard]] sha256_digest permutation_commitment(
    byte_view seed, std::span<const std::uint32_t> perm);

/// The mix pass: applies a uniform permutation to `input` and
/// rerandomizes every ciphertext under `joint_pub` via `engine` (group
/// math runs on the engine's pool). It draws from `rng`, in this order,
/// the permutation, a 32-byte seed for the permutation commitment and the
/// rerandomization batch seed; `opening`, when given, receives the first
/// two. `input` is consumed, so the pass holds one input vector.
[[nodiscard]] std::vector<elgamal_ciphertext> shuffle_and_rerandomize(
    const batch_engine& engine, const group_element& joint_pub,
    std::vector<elgamal_ciphertext> input, secure_rng& rng,
    shuffle_opening* opening = nullptr);

/// Mix output with its serialized form: mixers sit between two wire
/// messages, so producing the encodings once here lets the caller reuse
/// them for both the transcript digest and the outgoing message.
struct shuffle_result {
  std::vector<elgamal_ciphertext> output;
  std::vector<byte_buffer> output_encoded;  // output_encoded[i] = encode(output[i])
};

/// shuffle_and_rerandomize with a transcript: the same draws and so the
/// same output, encoded, with `transcript` filled from `input_encoded` and
/// the output encodings without re-serializing either vector.
/// `input_encoded[i]` must equal scheme.encode(input[i]) (digest-checked
/// protocols would reject a mismatch downstream, not here).
[[nodiscard]] shuffle_result shuffle_and_rerandomize_encoded(
    const batch_engine& engine, const group_element& joint_pub,
    std::span<const elgamal_ciphertext> input,
    std::span<const byte_buffer> input_encoded, secure_rng& rng,
    shuffle_transcript& transcript, shuffle_opening* opening = nullptr);

/// Structural verification available to every party: transcript digests
/// match the actual vectors and sizes are preserved.
[[nodiscard]] bool verify_shuffle_structure(
    const elgamal& scheme, std::span<const elgamal_ciphertext> input,
    std::span<const elgamal_ciphertext> output,
    const shuffle_transcript& transcript);

/// Full audit with the opening: checks the commitment, the permutation
/// being a bijection, and that each output decrypts-equal to its claimed
/// input under rerandomization (requires the joint secret in tests).
[[nodiscard]] bool verify_shuffle_opening(const elgamal& scheme,
                                          const scalar& joint_secret,
                                          std::span<const elgamal_ciphertext> input,
                                          std::span<const elgamal_ciphertext> output,
                                          const shuffle_transcript& transcript,
                                          const shuffle_opening& opening);

}  // namespace tormet::crypto
