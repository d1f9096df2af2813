// SHA-256 wrapper over OpenSSL's EVP interface. Used for onion descriptor
// IDs, PSC item hashing, and the deterministic DRBG.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "src/util/bytes.h"

namespace tormet::crypto {

inline constexpr std::size_t k_sha256_size = 32;
using sha256_digest = std::array<std::uint8_t, k_sha256_size>;

/// One-shot SHA-256 of `data`.
[[nodiscard]] sha256_digest sha256(byte_view data);

/// Convenience overload hashing the bytes of a string.
[[nodiscard]] sha256_digest sha256(std::string_view data);

/// Incremental hasher for multi-part, domain-separated inputs. Not
/// copyable: it owns an OpenSSL EVP context.
class sha256_hasher {
 public:
  sha256_hasher();
  ~sha256_hasher();
  sha256_hasher(const sha256_hasher&) = delete;
  sha256_hasher& operator=(const sha256_hasher&) = delete;
  sha256_hasher(sha256_hasher&& other) noexcept;
  sha256_hasher& operator=(sha256_hasher&& other) noexcept;

  sha256_hasher& update(byte_view data);
  sha256_hasher& update(std::string_view data);
  /// Appends a length-prefixed chunk, preventing concatenation ambiguity.
  sha256_hasher& update_framed(byte_view data);

  /// Finalizes and resets the hasher for reuse.
  [[nodiscard]] sha256_digest finish();

 private:
  void* ctx_ = nullptr;  // EVP_MD_CTX, kept opaque to avoid OpenSSL headers here
};

/// First 8 bytes of SHA-256(data) as a little-endian integer — the item
/// hashing primitive used by PSC's bin mapping and the workload generators.
[[nodiscard]] std::uint64_t sha256_trunc64(byte_view data);
[[nodiscard]] std::uint64_t sha256_trunc64(std::string_view data);

}  // namespace tormet::crypto
