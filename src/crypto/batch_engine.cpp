#include "src/crypto/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/util/check.h"

namespace tormet::crypto {

batch_engine::batch_engine(std::shared_ptr<const group> g,
                           std::shared_ptr<util::thread_pool> pool,
                           std::size_t shard_size)
    : scheme_{std::move(g)}, pool_{std::move(pool)}, shard_size_{shard_size} {
  expects(shard_size_ > 0, "batch_engine shard size must be positive");
}

sha256_digest batch_engine::derive_seed(secure_rng& rng) {
  sha256_digest seed{};
  rng.fill(seed);
  return seed;
}

sha256_digest batch_engine::shard_stream_key(const sha256_digest& seed,
                                             std::size_t shard_index) {
  sha256_hasher h;
  h.update("tormet.batch.shard.v1");
  h.update_framed(byte_view{seed.data(), seed.size()});
  std::uint8_t idx[8];
  for (int i = 0; i < 8; ++i) {
    idx[i] = static_cast<std::uint8_t>(std::uint64_t{shard_index} >> (8 * i));
  }
  h.update(byte_view{idx, 8});
  return h.finish();
}

template <typename Fn>
void batch_engine::run_chunked(std::size_t n, std::size_t grain, Fn&& fn) const {
  if (n == 0) return;
  if (pool_ != nullptr) {
    pool_->parallel_for(n, grain, fn);
    return;
  }
  for (std::size_t begin = 0; begin < n; begin += grain) {
    fn(begin, std::min(begin + grain, n));
  }
}

template <typename T, typename Fn>
std::vector<T> batch_engine::map_chunked(std::size_t n, std::size_t grain,
                                         Fn&& per_chunk) const {
  std::vector<T> out(n);
  run_chunked(n, grain, [&](std::size_t begin, std::size_t end) {
    std::vector<T> slice = per_chunk(begin, end);
    std::move(slice.begin(), slice.end(), out.begin() + begin);
  });
  return out;
}

std::size_t batch_engine::pure_grain(std::size_t n) const noexcept {
  // Inline execution gains nothing from finer chunks.
  if (pool_ == nullptr || pool_->size() == 0) return shard_size_;
  constexpr std::size_t k_chunks_per_party = 4;
  constexpr std::size_t k_min_chunk = 32;
  const std::size_t chunks = k_chunks_per_party * (pool_->size() + 1);
  return std::clamp((n + chunks - 1) / chunks,
                    std::min(k_min_chunk, shard_size_), shard_size_);
}

void batch_engine::draw_per_shard(const sha256_digest& seed,
                                  std::span<const std::uint8_t> bits,
                                  std::span<scalar> rs,
                                  std::span<scalar> ms) const {
  run_chunked(rs.size(), shard_size_, [&](std::size_t begin, std::size_t end) {
    stream_rng rng{shard_stream_key(seed, begin / shard_size_)};
    const std::size_t n = end - begin;
    scheme_.draw_scalars(rng, bits.empty() ? bits : bits.subspan(begin, n),
                         rs.subspan(begin, n),
                         ms.empty() ? ms : ms.subspan(begin, n));
  });
}

std::vector<elgamal_ciphertext> batch_engine::encrypt_drawn(
    const group_element& pub, std::span<const scalar> rs,
    std::span<const scalar> ms) const {
  grp().prepare_fixed_base(pub, rs.size());
  return map_chunked<elgamal_ciphertext>(
      rs.size(), pure_grain(rs.size()), [&](std::size_t begin, std::size_t end) {
        return scheme_.encrypt_batch(
            pub, rs.subspan(begin, end - begin),
            ms.empty() ? ms : ms.subspan(begin, end - begin));
      });
}

std::vector<elgamal_ciphertext> batch_engine::encrypt_zero_batch(
    const group_element& pub, std::size_t count,
    const sha256_digest& seed) const {
  std::vector<scalar> rs(count);
  draw_per_shard(seed, {}, rs, {});
  return encrypt_drawn(pub, rs, {});
}

std::vector<elgamal_ciphertext> batch_engine::encrypt_bits_batch(
    const group_element& pub, std::span<const std::uint8_t> bits,
    const sha256_digest& seed) const {
  std::vector<scalar> rs(bits.size()), ms(bits.size());
  draw_per_shard(seed, bits, rs, ms);
  return encrypt_drawn(pub, rs, ms);
}

std::vector<elgamal_ciphertext> batch_engine::encrypt_one_batch(
    const group_element& pub, std::span<const sha256_digest> stream_keys) const {
  const std::size_t n = stream_keys.size();
  std::vector<scalar> rs(n), ms(n);
  run_chunked(n, pure_grain(n), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // encrypt_one's order: the message scalar, then the nonce.
      stream_rng rng{stream_keys[i]};
      ms[i] = grp().random_scalar(rng);
      rs[i] = grp().random_scalar(rng);
    }
  });
  return encrypt_drawn(pub, rs, ms);
}

std::vector<elgamal_ciphertext> batch_engine::rerandomize_batch(
    const group_element& pub, std::span<const elgamal_ciphertext> cts,
    const sha256_digest& seed) const {
  std::vector<scalar> rs(cts.size());
  draw_per_shard(seed, {}, rs, {});
  grp().prepare_fixed_base(pub, rs.size());
  return map_chunked<elgamal_ciphertext>(
      cts.size(), pure_grain(cts.size()),
      [&](std::size_t begin, std::size_t end) {
        return scheme_.rerandomize_batch(pub, cts.subspan(begin, end - begin),
                                         std::span{rs}.subspan(begin, end - begin));
      });
}

std::vector<elgamal_ciphertext> batch_engine::strip_share_batch(
    std::span<const elgamal_ciphertext> cts, const scalar& share) const {
  return map_chunked<elgamal_ciphertext>(
      cts.size(), pure_grain(cts.size()),
      [&](std::size_t begin, std::size_t end) {
        return scheme_.strip_share_batch(cts.subspan(begin, end - begin), share);
      });
}

std::vector<elgamal_ciphertext> batch_engine::add_batch(
    std::span<const elgamal_ciphertext> c1,
    std::span<const elgamal_ciphertext> c2) const {
  expects(c1.size() == c2.size(), "add_batch spans must have equal length");
  return map_chunked<elgamal_ciphertext>(
      c1.size(), pure_grain(c1.size()),
      [&](std::size_t begin, std::size_t end) {
        return scheme_.add_batch(c1.subspan(begin, end - begin),
                                 c2.subspan(begin, end - begin));
      });
}

std::vector<elgamal_ciphertext> batch_engine::decode_batch(
    std::span<const byte_view> data) const {
  return map_chunked<elgamal_ciphertext>(
      data.size(), pure_grain(data.size()),
      [&](std::size_t begin, std::size_t end) {
        return scheme_.decode_batch(data.subspan(begin, end - begin));
      });
}

std::vector<byte_buffer> batch_engine::encode_batch(
    std::span<const elgamal_ciphertext> cts) const {
  return map_chunked<byte_buffer>(
      cts.size(), pure_grain(cts.size()),
      [&](std::size_t begin, std::size_t end) {
        return scheme_.encode_batch(cts.subspan(begin, end - begin));
      });
}

std::uint64_t batch_engine::tally_decode_count(
    std::span<const byte_view> data) const {
  std::atomic<std::uint64_t> count{0};
  run_chunked(data.size(), pure_grain(data.size()),
              [&](std::size_t begin, std::size_t end) {
    count.fetch_add(scheme_.count_non_identity_plaintexts(
                        data.subspan(begin, end - begin)),
                    std::memory_order_relaxed);
  });
  return count.load();
}

}  // namespace tormet::crypto
