// Multi-threaded front end for the bulk ElGamal work in a PSC round. The
// engine runs a batch through the elgamal/group batch APIs on a shared
// thread pool. A pass that draws randomness (encrypt zero, encrypt bits,
// rerandomize) splits its batch into fixed-size shards and draws each
// shard's scalars, in index order, from a stream derived from a
// caller-supplied 32-byte seed:
//
//     shard s's stream = ChaCha20( SHA256("tormet.batch.shard.v1" ‖ seed ‖ s) )
//
// Shard boundaries depend only on the configured shard size — never on the
// worker count or scheduling — so a given (inputs, seed) pair draws the
// same scalars whether the engine runs inline, on one worker, or on
// sixteen. Once drawn, every product is a pure per-index function of its
// scalars, as is every pass that draws nothing (decode, add, encode,
// strip, tally decode). So the products chunk for parallelism alone: about
// four chunks per party (the pool's workers plus the calling thread), no
// smaller than a few dozen elements and no larger than a shard. Their
// bytes are the same at any chunking. A pass against a fixed base asks
// the group for that base's table once, sized by the whole pass
// (group::prepare_fixed_base), before its chunks run.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/sha256.h"
#include "src/util/thread_pool.h"

namespace tormet::crypto {

class batch_engine {
 public:
  /// `pool == nullptr` runs every chunk inline (still batched, still
  /// seeded-deterministic). `shard_size` fixes the RNG stream boundaries of
  /// the passes that draw randomness (encrypt zero, encrypt bits,
  /// rerandomize); changing it changes outputs, so it is part of a
  /// deployment's protocol configuration. Products run one chunk per shard
  /// without a pool (or on a 0-worker one) and a finer, pool-sized grain on
  /// a pool, which changes no output.
  explicit batch_engine(std::shared_ptr<const group> g,
                        std::shared_ptr<util::thread_pool> pool = nullptr,
                        std::size_t shard_size = 512);

  [[nodiscard]] const elgamal& scheme() const noexcept { return scheme_; }
  [[nodiscard]] const group& grp() const noexcept { return scheme_.grp(); }
  [[nodiscard]] std::size_t shard_size() const noexcept { return shard_size_; }

  /// Draws a fresh 32-byte batch seed from a session RNG (one fill, so the
  /// caller's stream advances identically no matter the batch size).
  [[nodiscard]] static sha256_digest derive_seed(secure_rng& rng);

  /// `count` encryptions of zero under `pub`.
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_zero_batch(
      const group_element& pub, std::size_t count,
      const sha256_digest& seed) const;

  /// Per index: encrypt_one when bits[i] != 0, else encrypt_zero.
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_bits_batch(
      const group_element& pub, std::span<const std::uint8_t> bits,
      const sha256_digest& seed) const;

  /// encrypt_one under `pub` at every index i, drawing its message scalar
  /// and then its nonce from the stream ChaCha20(stream_keys[i]): a batch of
  /// encryptions whose randomness is each one's own (a PSC DC's seeded
  /// inserts), so any split of the batch gives the same bytes.
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_one_batch(
      const group_element& pub, std::span<const sha256_digest> stream_keys) const;

  /// Rerandomizes every ciphertext under `pub`.
  [[nodiscard]] std::vector<elgamal_ciphertext> rerandomize_batch(
      const group_element& pub, std::span<const elgamal_ciphertext> cts,
      const sha256_digest& seed) const;

  /// Strips one decryption share from every ciphertext.
  [[nodiscard]] std::vector<elgamal_ciphertext> strip_share_batch(
      std::span<const elgamal_ciphertext> cts, const scalar& share) const;

  /// Elementwise homomorphic combination (the tally server's table merge).
  [[nodiscard]] std::vector<elgamal_ciphertext> add_batch(
      std::span<const elgamal_ciphertext> c1,
      std::span<const elgamal_ciphertext> c2) const;

  /// Wire-format decode/encode of a ciphertext vector, sharded across the
  /// pool (deterministic: pure per-index functions of the inputs). decode
  /// reads views, so a vector decodes straight out of its message.
  [[nodiscard]] std::vector<elgamal_ciphertext> decode_batch(
      std::span<const byte_view> data) const;
  [[nodiscard]] std::vector<byte_buffer> encode_batch(
      std::span<const elgamal_ciphertext> cts) const;

  /// The tally server's final decode: decodes every wire ciphertext's
  /// plaintext (b) component and counts non-identity bins, sharded across
  /// the pool with zero per-element allocations inside each shard.
  [[nodiscard]] std::uint64_t tally_decode_count(
      std::span<const byte_view> data) const;

 private:
  /// Runs fn(begin, end) over [0, n) in `grain`-sized chunks, parallel
  /// when a pool is attached.
  template <typename Fn>
  void run_chunked(std::size_t n, std::size_t grain, Fn&& fn) const;

  /// Stitches per-chunk slices into one output vector of length n:
  /// per_chunk(begin, end) returns the std::vector<T> for [begin, end),
  /// moved into place. Every batch op above is one of these.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map_chunked(std::size_t n, std::size_t grain,
                                           Fn&& per_chunk) const;

  /// Chunk size of the per-index work (every product, every pass that
  /// draws nothing), for a batch of n.
  [[nodiscard]] std::size_t pure_grain(std::size_t n) const noexcept;

  /// elgamal::draw_scalars over the whole batch, each shard from its own
  /// stream of `seed`. Shards draw in parallel.
  void draw_per_shard(const sha256_digest& seed,
                      std::span<const std::uint8_t> bits, std::span<scalar> rs,
                      std::span<scalar> ms) const;

  /// elgamal::encrypt_batch over drawn scalars, at pure grain.
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_drawn(
      const group_element& pub, std::span<const scalar> rs,
      std::span<const scalar> ms) const;

  /// ChaCha20 stream key for shard `shard_index` of a batch seeded by
  /// `seed` — the per-index RNG streams that make sharded output
  /// reproducible.
  [[nodiscard]] static sha256_digest shard_stream_key(const sha256_digest& seed,
                                                      std::size_t shard_index);

  elgamal scheme_;
  std::shared_ptr<util::thread_pool> pool_;
  std::size_t shard_size_;
};

}  // namespace tormet::crypto
