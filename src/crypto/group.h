// Cyclic-group abstraction for the PSC cryptography (EC-ElGamal, shuffles,
// distributed decryption). Two backends share this interface:
//
//  * p256_group — NIST P-256 via OpenSSL EC. The production backend; all
//    security claims refer to this one.
//  * toy_group  — a 62-bit Schnorr group (quadratic residues modulo a safe
//    prime). Cryptographically weak by construction, but ~100x faster and
//    algebraically identical, so unit tests and large simulated deployments
//    can exercise the exact protocol code paths.
//
// Elements and scalars are opaque handles; only a group instance can create
// or combine them, and handles from different backends must not be mixed
// (checked where cheap).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/secure_rng.h"
#include "src/util/bytes.h"
#include "src/util/check.h"

namespace tormet::crypto {

class group;

/// Opaque group element handle (immutable, cheaply copyable).
class group_element {
 public:
  group_element() = default;

  /// True when this handle refers to an element (default-constructed handles
  /// do not and may only be assigned to).
  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

 private:
  friend class p256_group;
  friend class toy_group;
  explicit group_element(std::shared_ptr<const void> impl) noexcept
      : impl_{std::move(impl)} {}
  std::shared_ptr<const void> impl_;
};

/// Opaque scalar (exponent modulo the group order). Stored as canonical
/// big-endian bytes of backend-defined width. Encodings up to 32 bytes —
/// every supported backend — live inline with no heap allocation, which
/// keeps the bulk encrypt paths (one nonce scalar per ciphertext)
/// allocation-free per element; wider encodings fall back to a shared heap
/// buffer.
class scalar {
 public:
  scalar() = default;
  scalar(const scalar&) = default;
  scalar& operator=(const scalar&) = default;
  // User-defined moves so a moved-from scalar reports invalid instead of
  // keeping a stale size over a nulled heap buffer.
  scalar(scalar&& other) noexcept
      : inline_{other.inline_}, heap_{std::move(other.heap_)},
        size_{other.size_} {
    other.size_ = 0;
  }
  scalar& operator=(scalar&& other) noexcept {
    if (this != &other) {
      inline_ = other.inline_;
      heap_ = std::move(other.heap_);
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] bool valid() const noexcept { return size_ != 0; }
  [[nodiscard]] byte_view bytes() const noexcept { return {data(), size_}; }
  /// True when the encoding fits the inline buffer (diagnostics/tests).
  [[nodiscard]] bool is_inline() const noexcept {
    return size_ <= k_inline_bytes;
  }

 private:
  friend class p256_group;
  friend class toy_group;
  friend struct scalar_test_access;
  static constexpr std::size_t k_inline_bytes = 32;

  explicit scalar(byte_view bytes)
      : size_{static_cast<std::uint16_t>(bytes.size())} {
    expects(bytes.size() <= 0xffff, "scalar encoding too wide");
    if (bytes.size() <= k_inline_bytes) {
      std::copy(bytes.begin(), bytes.end(), inline_.begin());
    } else {
      auto heap = std::shared_ptr<std::uint8_t[]>{new std::uint8_t[bytes.size()]};
      std::copy(bytes.begin(), bytes.end(), heap.get());
      heap_ = std::move(heap);
    }
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return size_ <= k_inline_bytes ? inline_.data() : heap_.get();
  }

  std::array<std::uint8_t, k_inline_bytes> inline_{};
  std::shared_ptr<std::uint8_t[]> heap_;  // only when size_ > k_inline_bytes
  std::uint16_t size_ = 0;
};

/// Abstract prime-order cyclic group.
class group {
 public:
  virtual ~group() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // -- scalars ------------------------------------------------------------
  /// Uniform scalar in [1, order) — never zero, so "random element" messages
  /// are never the identity.
  [[nodiscard]] virtual scalar random_scalar(secure_rng& rng) const = 0;
  [[nodiscard]] virtual scalar scalar_from_u64(std::uint64_t value) const = 0;

  // -- elements -----------------------------------------------------------
  [[nodiscard]] virtual group_element identity() const = 0;
  [[nodiscard]] virtual group_element generator() const = 0;
  /// generator * k (fast path: backends precompute generator tables).
  [[nodiscard]] virtual group_element mul_generator(const scalar& k) const = 0;
  /// point * k.
  [[nodiscard]] virtual group_element mul(const group_element& p,
                                          const scalar& k) const = 0;
  /// Group operation (written additively).
  [[nodiscard]] virtual group_element add(const group_element& a,
                                          const group_element& b) const = 0;
  [[nodiscard]] virtual group_element negate(const group_element& a) const = 0;
  [[nodiscard]] virtual bool is_identity(const group_element& a) const = 0;
  [[nodiscard]] virtual bool equal(const group_element& a,
                                   const group_element& b) const = 0;

  // -- batch operations ----------------------------------------------------
  // Vector forms of the element operations, for the bulk homogeneous work
  // that dominates PSC rounds (bin init, rerandomize-and-mix, strip
  // passes). Contract, binding on every backend:
  //
  //  * out[i] is the same group element the scalar operation would return
  //    for index i — batch and serial paths are interchangeable and their
  //    encodings are bit-identical;
  //  * out[i] depends only on inputs at index i (no cross-element mixing),
  //    so callers may split a batch into sub-batches at any boundary without
  //    changing results — this is what makes multi-threaded sharding safe;
  //  * paired spans must have equal length (checked);
  //  * empty batches return empty vectors;
  //  * calls are safe concurrently on one (const) instance from multiple
  //    threads.
  //
  // Every backend implements all of them and may amortize allocation and
  // precomputation across the batch: p256 reuses one BN_CTX and scratch
  // BIGNUM arena per batch instead of allocating per call; the toy backend
  // uses fixed-base comb tables, a single-allocation element arena,
  // and Montgomery batch inversion for sub_batch. For mul_batch(base, ks)
  // both backends cache a precomputed table per base. A table is built
  // only when bulk work against that base asks for one: a mul_batch of at
  // least the backend's threshold (toy: 16 scalars, p256: 256), or a
  // prepare_fixed_base for a pass of that many products, which a caller
  // that splits one pass into smaller chunks makes before they run. p256
  // then uses the table for every batch against that base, one-scalar
  // batches included, which is why elgamal::encrypt computes r·Y through
  // mul_batch; mul() stays the plain variable-base operation.
  //
  // Lifetime note: batch results may share one arena per batch — every
  // returned handle keeps the whole batch's storage alive. Retaining a few
  // elements from a huge batch pins the rest; copy out via encode/decode if
  // that matters.

  /// generator * ks[i] for every i (fixed-base precomputation amortized).
  [[nodiscard]] virtual std::vector<group_element> mul_generator_batch(
      std::span<const scalar> ks) const = 0;
  /// base * ks[i] for every i (one base, many scalars — e.g. pk * nonce).
  [[nodiscard]] virtual std::vector<group_element> mul_batch(
      const group_element& base, std::span<const scalar> ks) const = 0;
  /// Readies `base` for a pass of `products` mul_batch products split into
  /// chunks of any size: looks up its table, or builds one when `products`
  /// reaches the threshold a single mul_batch would build at. The chunks'
  /// mul_batch calls then use that table. Changes no result.
  virtual void prepare_fixed_base(const group_element& base,
                                  std::size_t products) const = 0;
  /// pts[i] * k for every i (many points, one scalar — e.g. decrypt shares).
  [[nodiscard]] virtual std::vector<group_element> mul_batch(
      std::span<const group_element> pts, const scalar& k) const = 0;
  /// a[i] + b[i] for every i.
  [[nodiscard]] virtual std::vector<group_element> add_batch(
      std::span<const group_element> a,
      std::span<const group_element> b) const = 0;
  /// a[i] - b[i] for every i (toy backend: Montgomery batch inversion).
  [[nodiscard]] virtual std::vector<group_element> sub_batch(
      std::span<const group_element> a,
      std::span<const group_element> b) const = 0;

  // -- serialization ------------------------------------------------------
  [[nodiscard]] virtual byte_buffer encode(const group_element& a) const = 0;
  /// encode() for every element, with per-element work amortized across
  /// the batch (p256 normalizes up to 1024 points per field inversion).
  /// Same bytes as encode() at every index; the input handles are left as
  /// they were. The default loops encode().
  [[nodiscard]] virtual std::vector<byte_buffer> encode_batch(
      std::span<const group_element> elements) const;
  [[nodiscard]] virtual group_element decode(byte_view data) const = 0;
  [[nodiscard]] virtual byte_buffer encode_scalar(const scalar& k) const;
  [[nodiscard]] virtual scalar decode_scalar(byte_view data) const = 0;

  /// decode() for every encoding, with allocation amortized across the
  /// batch (backends share one element arena instead of one heap node per
  /// element). Same validation and same per-index results as decode().
  [[nodiscard]] virtual std::vector<group_element> decode_batch(
      std::span<const byte_view> data) const = 0;
  /// Decodes every encoding and returns how many are NOT the identity — the
  /// tally server's occupied-bin check — without materializing element
  /// handles at all (zero allocations per element in both backends).
  [[nodiscard]] virtual std::size_t count_non_identity(
      std::span<const byte_view> encodings) const = 0;

  // -- derived helpers ----------------------------------------------------
  /// Uniform non-identity element (generator * random nonzero scalar).
  [[nodiscard]] group_element random_element(secure_rng& rng) const;
  /// a + (-b).
  [[nodiscard]] group_element sub(const group_element& a,
                                  const group_element& b) const;
};

/// NIST P-256 backend (OpenSSL). Thread-compatible: distinct instances may
/// be used concurrently; a single instance is safe for concurrent reads.
[[nodiscard]] std::shared_ptr<const group> make_p256_group();

/// 62-bit Schnorr-group backend. NOT cryptographically secure; for tests and
/// large-scale simulation only.
[[nodiscard]] std::shared_ptr<const group> make_toy_group();

/// Backend selector used by configuration code. Instances are immutable and
/// thread-safe, so make_group returns a process-wide shared instance per
/// backend: repeated rounds (and test cases) reuse the same group object and
/// its internal precompute caches instead of rebuilding them.
enum class group_backend { p256, toy };
[[nodiscard]] std::shared_ptr<const group> make_group(group_backend backend);

}  // namespace tormet::crypto
