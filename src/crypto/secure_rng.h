// Cryptographic randomness. Protocol code (key generation, blinding values,
// ElGamal nonces, shuffle permutations) draws from a secure_rng so that
// production uses the OS entropy pool while tests use a deterministic
// HMAC-DRBG with identical behaviour.
#pragma once

#include <cstdint>
#include <memory>

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace tormet::crypto {

/// Interface for cryptographic random byte generation.
class secure_rng {
 public:
  virtual ~secure_rng() = default;

  /// Fills `out` with random bytes.
  virtual void fill(std::span<std::uint8_t> out) = 0;

  /// Uniform random 64-bit value.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform value in [0, bound), bound > 0. Rejection-sampled (no bias).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);
};

/// Production generator backed by OpenSSL RAND_bytes.
class system_rng final : public secure_rng {
 public:
  void fill(std::span<std::uint8_t> out) override;
};

/// Deterministic per-node RNG seed: a pure function of (deployment seed,
/// node id). Deployments give every node its own stream derived this way,
/// so an in-process round and a multi-process distributed round draw
/// identical randomness per node regardless of how message delivery
/// interleaves across nodes — the property the distributed byte-identical
/// tally check rests on.
[[nodiscard]] sha256_digest derive_node_seed(std::uint64_t deployment_seed,
                                             std::uint32_t node_id);

class deterministic_rng;
/// The node's deterministic stream, seeded via derive_node_seed. Single
/// factory shared by the in-process deployments and the distributed node
/// runner — the byte-identity guarantee requires every construction site
/// to frame the seed identically.
[[nodiscard]] deterministic_rng make_node_rng(std::uint64_t deployment_seed,
                                              std::uint32_t node_id);

/// Per-(node, round) seed: a pure function of (deployment seed, node id,
/// round id). Deployments reseed every node's stream from this at each
/// round boundary, making a round's protocol randomness independent of how
/// many rounds (or partial, crashed round attempts) preceded it — the
/// property that lets a restarted process, or a tally server retrying a
/// round, reproduce byte-identical messages.
[[nodiscard]] sha256_digest derive_node_round_seed(std::uint64_t deployment_seed,
                                                   std::uint32_t node_id,
                                                   std::uint32_t round_id);
/// The node's deterministic stream for one round, seeded via
/// derive_node_round_seed.
[[nodiscard]] deterministic_rng make_node_round_rng(std::uint64_t deployment_seed,
                                                    std::uint32_t node_id,
                                                    std::uint32_t round_id);

/// Deterministic generator: HMAC-SHA256 in counter mode keyed by a seed.
/// NIST-DRBG-shaped (not certified); used for reproducible protocol runs in
/// tests, simulations, and benches.
class deterministic_rng final : public secure_rng {
 public:
  explicit deterministic_rng(byte_view seed);
  explicit deterministic_rng(std::uint64_t seed);

  void fill(std::span<std::uint8_t> out) override;

 private:
  sha256_digest key_{};
  std::uint64_t counter_ = 0;
  sha256_digest block_{};
  std::size_t block_used_ = k_sha256_size;  // forces generation on first use
};

/// Deterministic bulk generator: a ChaCha20 keystream keyed by a 32-byte
/// seed, buffered in 4 KiB blocks after a first 128-byte one. Same
/// reproducibility contract as deterministic_rng (the stream depends only
/// on the seed, never on how it is read) but an order of magnitude faster
/// for the bulk nonce draws of the crypto batch engine, where every shard
/// gets its own derived stream. A PSC insert reads 64 bytes of its own
/// stream, so a stream is cheap to build: the cipher is fetched once per
/// process and the first block is small.
class stream_rng final : public secure_rng {
 public:
  explicit stream_rng(const sha256_digest& seed);
  ~stream_rng() override;
  stream_rng(const stream_rng&) = delete;
  stream_rng& operator=(const stream_rng&) = delete;

  void fill(std::span<std::uint8_t> out) override;

 private:
  void refill();

  void* ctx_ = nullptr;  // EVP_CIPHER_CTX (void* keeps OpenSSL out of headers)
  std::array<std::uint8_t, 4096> buf_;  // written before it is read
  std::size_t size_ = 0;  // keystream bytes in buf_; 0 until the first refill
  std::size_t used_ = 0;
};

}  // namespace tormet::crypto
