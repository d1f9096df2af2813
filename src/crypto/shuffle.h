// Rerandomizing shuffle of ElGamal ciphertext vectors — the mixing step each
// PSC computation party applies before forwarding, so that no party can link
// a decrypted bin back to a data collector or a hash position.
//
// TRUST MODEL (see docs/ARCHITECTURE.md, the PSC bullet): the published PSC
// (Fenske et al., CCS 2017) proves each shuffle in zero knowledge. tormet
// implements the shuffle and the rerandomization exactly and proves nothing,
// so it assumes every computation party follows the protocol.
#pragma once

#include <cstdint>
#include <vector>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/secure_rng.h"

namespace tormet::crypto {

/// Uniform random permutation of [0, n) (Fisher–Yates over secure bits).
[[nodiscard]] std::vector<std::uint32_t> random_permutation(std::size_t n,
                                                            secure_rng& rng);

/// The mix pass: applies a uniform permutation to `input` and
/// rerandomizes every ciphertext under `joint_pub` via `engine` (group
/// math runs on the engine's pool). It draws from `rng`, in this order,
/// the permutation and the rerandomization batch seed. `input` is
/// consumed, so the pass holds one input vector.
[[nodiscard]] std::vector<elgamal_ciphertext> shuffle_and_rerandomize(
    const batch_engine& engine, const group_element& joint_pub,
    std::vector<elgamal_ciphertext> input, secure_rng& rng);

}  // namespace tormet::crypto
