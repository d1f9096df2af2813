#include "src/crypto/secure_rng.h"

#include <openssl/evp.h>
#include <openssl/rand.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/hmac.h"
#include "src/util/check.h"

namespace tormet::crypto {

std::uint64_t secure_rng::next_u64() {
  std::uint8_t buf[8];
  fill(buf);
  std::uint64_t out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | buf[i];
  return out;
}

std::uint64_t secure_rng::below(std::uint64_t bound) {
  expects(bound > 0, "below() requires bound > 0");
  if (bound == 1) return 0;
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

void system_rng::fill(std::span<std::uint8_t> out) {
  if (out.empty()) return;
  if (RAND_bytes(out.data(), static_cast<int>(out.size())) != 1) {
    throw std::runtime_error{"RAND_bytes failed"};
  }
}

sha256_digest derive_node_seed(std::uint64_t deployment_seed,
                               std::uint32_t node_id) {
  sha256_hasher h;
  h.update("tormet.node-rng.v1");
  std::uint8_t buf[12];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(deployment_seed >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    buf[8 + i] = static_cast<std::uint8_t>(node_id >> (8 * i));
  }
  h.update(byte_view{buf, sizeof buf});
  return h.finish();
}

deterministic_rng make_node_rng(std::uint64_t deployment_seed,
                                std::uint32_t node_id) {
  const sha256_digest d = derive_node_seed(deployment_seed, node_id);
  return deterministic_rng{byte_view{d.data(), d.size()}};
}

sha256_digest derive_node_round_seed(std::uint64_t deployment_seed,
                                     std::uint32_t node_id,
                                     std::uint32_t round_id) {
  sha256_hasher h;
  h.update("tormet.node-round-rng.v1");
  std::uint8_t buf[16];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(deployment_seed >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    buf[8 + i] = static_cast<std::uint8_t>(node_id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    buf[12 + i] = static_cast<std::uint8_t>(round_id >> (8 * i));
  }
  h.update(byte_view{buf, sizeof buf});
  return h.finish();
}

deterministic_rng make_node_round_rng(std::uint64_t deployment_seed,
                                      std::uint32_t node_id,
                                      std::uint32_t round_id) {
  const sha256_digest d = derive_node_round_seed(deployment_seed, node_id, round_id);
  return deterministic_rng{byte_view{d.data(), d.size()}};
}

deterministic_rng::deterministic_rng(byte_view seed) {
  key_ = sha256(seed);
}

deterministic_rng::deterministic_rng(std::uint64_t seed) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  key_ = sha256(byte_view{buf, 8});
}

void deterministic_rng::fill(std::span<std::uint8_t> out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    if (block_used_ == k_sha256_size) {
      std::uint8_t ctr[8];
      for (int i = 0; i < 8; ++i) {
        ctr[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
      }
      ++counter_;
      block_ = hmac_sha256(byte_view{key_.data(), key_.size()}, byte_view{ctr, 8});
      block_used_ = 0;
    }
    const std::size_t take =
        std::min(out.size() - produced, k_sha256_size - block_used_);
    std::memcpy(out.data() + produced, block_.data() + block_used_, take);
    produced += take;
    block_used_ += take;
  }
}

namespace {

/// ChaCha20, fetched once per process. EVP_chacha20() is an implicit
/// fetch: every EVP_EncryptInit_ex with it looks the cipher up under
/// OpenSSL 3's method-store lock, which serializes threads that each build
/// many short streams.
[[nodiscard]] const EVP_CIPHER* chacha20() {
  static EVP_CIPHER* const cipher = [] {
    EVP_CIPHER* c = EVP_CIPHER_fetch(nullptr, "ChaCha20", nullptr);
    if (c == nullptr) throw std::runtime_error{"EVP_CIPHER_fetch(ChaCha20) failed"};
    return c;
  }();
  return cipher;
}

// The first refill covers a PSC insert's two scalar draws with room for
// p256's rejection sampling; later refills fill the buffer.
constexpr std::size_t k_first_refill = 128;

}  // namespace

stream_rng::stream_rng(const sha256_digest& seed) {
  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  if (ctx == nullptr) throw std::runtime_error{"EVP_CIPHER_CTX_new failed"};
  // Zero IV: every stream gets a unique key (derived per shard), so the
  // nonce carries no distinguishing duty.
  const std::uint8_t iv[16] = {};
  if (EVP_EncryptInit_ex(ctx, chacha20(), nullptr, seed.data(), iv) != 1) {
    EVP_CIPHER_CTX_free(ctx);
    throw std::runtime_error{"EVP_EncryptInit_ex(chacha20) failed"};
  }
  ctx_ = ctx;
}

stream_rng::~stream_rng() {
  EVP_CIPHER_CTX_free(static_cast<EVP_CIPHER_CTX*>(ctx_));
}

void stream_rng::refill() {
  static constexpr std::uint8_t k_zeros[sizeof(buf_)] = {};
  // The cipher keeps its place within a block across calls, so the
  // keystream does not depend on the refill sizes.
  const int n = static_cast<int>(size_ == 0 ? k_first_refill : buf_.size());
  int out_len = 0;
  if (EVP_EncryptUpdate(static_cast<EVP_CIPHER_CTX*>(ctx_), buf_.data(),
                        &out_len, k_zeros, n) != 1 ||
      out_len != n) {
    throw std::runtime_error{"EVP_EncryptUpdate(chacha20) failed"};
  }
  size_ = static_cast<std::size_t>(n);
  used_ = 0;
}

void stream_rng::fill(std::span<std::uint8_t> out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    if (used_ == size_) refill();
    const std::size_t take = std::min(out.size() - produced, size_ - used_);
    std::memcpy(out.data() + produced, buf_.data() + used_, take);
    produced += take;
    used_ += take;
  }
}

}  // namespace tormet::crypto
