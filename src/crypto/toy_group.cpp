// Toy 62-bit Schnorr group: the subgroup of quadratic residues modulo the
// safe prime p = 0x3fffffffffffd6bb (order q = (p-1)/2, also prime).
// Generator 4 = 2^2 is a quadratic residue, hence generates the q-order
// subgroup. All arithmetic uses unsigned __int128.
//
// SECURITY: a 62-bit discrete log is trivially breakable. This backend
// exists so tests and large simulations can run the identical protocol code
// fast; production uses p256_group.
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/crypto/group.h"
#include "src/util/check.h"

namespace tormet::crypto {

namespace {

constexpr std::uint64_t k_p = 0x3fffffffffffd6bbULL;  // safe prime
constexpr std::uint64_t k_q = 0x1fffffffffffeb5dULL;  // (p-1)/2, prime
constexpr std::uint64_t k_g = 4;                      // generator of QR subgroup

// p = 2^62 - c with c = 10565, so 2^62 ≡ c (mod p) and a 124-bit product
// folds to the range with two multiply-and-shift steps instead of a 128-bit
// division (~3x faster; mod_pow dominates every exponentiation path).
constexpr std::uint64_t k_c = (std::uint64_t{1} << 62) - k_p;
constexpr std::uint64_t k_mask62 = (std::uint64_t{1} << 62) - 1;

[[nodiscard]] std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) noexcept {
  unsigned __int128 x = static_cast<unsigned __int128>(a) * b;  // < 2^124
  // Fold twice: hi*2^62 + lo ≡ hi*c + lo. After the first fold x < 2^76,
  // after the second the high part is < 2^14, so one conditional subtract
  // finishes the reduction.
  x = (x >> 62) * k_c + (static_cast<std::uint64_t>(x) & k_mask62);
  std::uint64_t r = static_cast<std::uint64_t>(x >> 62) * k_c +
                    (static_cast<std::uint64_t>(x) & k_mask62);
  if (r >= k_p) r -= k_p;
  return r;
}

[[nodiscard]] std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  std::uint64_t acc = base % k_p;
  while (exp != 0) {
    if (exp & 1) result = mod_mul(result, acc);
    acc = mod_mul(acc, acc);
    exp >>= 1;
  }
  return result;
}

// Inverse via Fermat: a^(p-2) mod p.
[[nodiscard]] std::uint64_t mod_inv(std::uint64_t a) noexcept {
  return mod_pow(a, k_p - 2);
}

struct element_box {
  std::uint64_t value;
};

// Fixed-base comb table: rows[j][d] = base^(d << (width*j)), so an
// exponentiation is one table lookup + multiply per nonzero window and no
// squarings at all. Build cost is windows * 2^width multiplies, amortized
// across a batch (and paid exactly once for the generator).
struct comb_table {
  unsigned width = 0;
  std::vector<std::uint64_t> rows;  // windows * 2^width entries
};

[[nodiscard]] comb_table build_comb(std::uint64_t base, unsigned width) {
  comb_table t;
  t.width = width;
  const std::size_t row_size = std::size_t{1} << width;
  const unsigned windows = (64 + width - 1) / width;
  t.rows.assign(windows * row_size, 1);
  std::uint64_t window_base = base % k_p;  // base^(2^(width*j))
  for (unsigned j = 0; j < windows; ++j) {
    std::uint64_t* row = &t.rows[j * row_size];
    for (std::size_t d = 1; d < row_size; ++d) {
      row[d] = mod_mul(row[d - 1], window_base);
    }
    window_base = mod_mul(row[row_size - 1], window_base);
  }
  return t;
}

[[nodiscard]] std::uint64_t comb_pow(const comb_table& t, std::uint64_t e) noexcept {
  const std::size_t row_size = std::size_t{1} << t.width;
  const std::uint64_t mask = row_size - 1;
  std::uint64_t r = 1;
  for (std::size_t j = 0; e != 0; ++j, e >>= t.width) {
    const std::uint64_t d = e & mask;
    if (d != 0) r = mod_mul(r, t.rows[j * row_size + d]);
  }
  return r;
}

[[nodiscard]] const comb_table& generator_comb() {
  static const comb_table t = build_comb(k_g, 8);
  return t;
}

// Four independent square-and-multiply chains in lockstep over one shared
// exponent. Each chain is latency-bound on its sequential squarings;
// interleaving four lets the CPU overlap them, which roughly triples
// throughput on the fixed-scalar (decrypt-share) batch path.
void mod_pow_lanes4(const std::uint64_t* bases, std::uint64_t exp,
                    std::uint64_t* out) noexcept {
  std::uint64_t r0 = 1, r1 = 1, r2 = 1, r3 = 1;
  std::uint64_t a0 = bases[0] % k_p, a1 = bases[1] % k_p;
  std::uint64_t a2 = bases[2] % k_p, a3 = bases[3] % k_p;
  while (exp != 0) {
    if (exp & 1) {
      r0 = mod_mul(r0, a0);
      r1 = mod_mul(r1, a1);
      r2 = mod_mul(r2, a2);
      r3 = mod_mul(r3, a3);
    }
    a0 = mod_mul(a0, a0);
    a1 = mod_mul(a1, a1);
    a2 = mod_mul(a2, a2);
    a3 = mod_mul(a3, a3);
    exp >>= 1;
  }
  out[0] = r0;
  out[1] = r1;
  out[2] = r2;
  out[3] = r3;
}

}  // namespace

class toy_group final : public group {
 public:
  [[nodiscard]] std::string name() const override { return "toy62"; }

  [[nodiscard]] scalar random_scalar(secure_rng& rng) const override {
    // Uniform in [1, q).
    return make_scalar(1 + rng.below(k_q - 1));
  }

  [[nodiscard]] scalar scalar_from_u64(std::uint64_t value) const override {
    return make_scalar(value % k_q);
  }

  [[nodiscard]] group_element identity() const override { return wrap(1); }

  [[nodiscard]] group_element generator() const override { return wrap(k_g); }

  [[nodiscard]] group_element mul_generator(const scalar& k) const override {
    return wrap(mod_pow(k_g, scalar_value(k)));
  }

  [[nodiscard]] group_element mul(const group_element& p, const scalar& k) const override {
    return wrap(mod_pow(unwrap(p), scalar_value(k)));
  }

  [[nodiscard]] group_element add(const group_element& a, const group_element& b) const override {
    return wrap(mod_mul(unwrap(a), unwrap(b)));
  }

  [[nodiscard]] group_element negate(const group_element& a) const override {
    return wrap(mod_inv(unwrap(a)));
  }

  [[nodiscard]] bool is_identity(const group_element& a) const override {
    return unwrap(a) == 1;
  }

  [[nodiscard]] bool equal(const group_element& a, const group_element& b) const override {
    return unwrap(a) == unwrap(b);
  }

  [[nodiscard]] byte_buffer encode(const group_element& a) const override {
    const std::uint64_t v = unwrap(a);
    byte_buffer out(8);
    for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
    return out;
  }

  [[nodiscard]] group_element decode(byte_view data) const override {
    return wrap(decode_value(data));
  }

  // Batch fast paths: operate on raw std::uint64_t vectors (one aliased
  // arena allocation for the whole batch instead of a shared_ptr per
  // element) and amortize fixed-base comb tables across the batch.
  [[nodiscard]] std::vector<group_element> mul_generator_batch(
      std::span<const scalar> ks) const override {
    const comb_table& t = generator_comb();
    std::vector<std::uint64_t> out(ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      out[i] = comb_pow(t, scalar_value(ks[i]));
    }
    return wrap_batch(out);
  }

  [[nodiscard]] std::vector<group_element> mul_batch(
      const group_element& base, std::span<const scalar> ks) const override {
    const std::uint64_t b = unwrap(base);
    // 1^k = 1: the identity, which a PSC chain's last CP encrypts under,
    // gets no comb table.
    std::vector<std::uint64_t> out(ks.size(), 1);
    if (b == 1) return wrap_batch(out);
    // Tables are cached per base, so repeated batches against the same
    // point (the joint public key, across every engine chunk of every
    // round) build it once; a smaller batch uses one that exists.
    if (const std::shared_ptr<const comb_table> t = cached_comb(b, ks.size())) {
      for (std::size_t i = 0; i < ks.size(); ++i) {
        out[i] = comb_pow(*t, scalar_value(ks[i]));
      }
    } else {
      for (std::size_t i = 0; i < ks.size(); ++i) {
        out[i] = mod_pow(b, scalar_value(ks[i]));
      }
    }
    return wrap_batch(out);
  }

  void prepare_fixed_base(const group_element& base,
                          std::size_t products) const override {
    const std::uint64_t b = unwrap(base);
    if (b != 1) (void)cached_comb(b, products);
  }

  [[nodiscard]] std::vector<group_element> mul_batch(
      std::span<const group_element> pts, const scalar& k) const override {
    const std::uint64_t e = scalar_value(k);
    const std::size_t n = pts.size();
    std::vector<std::uint64_t> out(n);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const std::uint64_t bases[4] = {unwrap(pts[i]), unwrap(pts[i + 1]),
                                      unwrap(pts[i + 2]), unwrap(pts[i + 3])};
      mod_pow_lanes4(bases, e, &out[i]);
    }
    for (; i < n; ++i) out[i] = mod_pow(unwrap(pts[i]), e);
    return wrap_batch(out);
  }

  [[nodiscard]] std::vector<group_element> add_batch(
      std::span<const group_element> a,
      std::span<const group_element> b) const override {
    expects(a.size() == b.size(), "add_batch spans must have equal length");
    std::vector<std::uint64_t> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      out[i] = mod_mul(unwrap(a[i]), unwrap(b[i]));
    }
    return wrap_batch(out);
  }

  [[nodiscard]] std::vector<group_element> sub_batch(
      std::span<const group_element> a,
      std::span<const group_element> b) const override {
    expects(a.size() == b.size(), "sub_batch spans must have equal length");
    const std::size_t n = a.size();
    if (n == 0) return {};
    // Montgomery batch inversion: one Fermat inversion for the whole batch,
    // three multiplies per element. b^(-1) is unique mod p, so results match
    // the serial a + (-b) path bit for bit.
    std::vector<std::uint64_t> prefix(n);
    prefix[0] = unwrap(b[0]);
    for (std::size_t i = 1; i < n; ++i) {
      prefix[i] = mod_mul(prefix[i - 1], unwrap(b[i]));
    }
    std::uint64_t inv_running = mod_inv(prefix[n - 1]);
    std::vector<std::uint64_t> out(n);
    for (std::size_t i = n - 1; i > 0; --i) {
      const std::uint64_t inv_bi = mod_mul(inv_running, prefix[i - 1]);
      inv_running = mod_mul(inv_running, unwrap(b[i]));
      out[i] = mod_mul(unwrap(a[i]), inv_bi);
    }
    out[0] = mod_mul(unwrap(a[0]), inv_running);
    return wrap_batch(out);
  }

  [[nodiscard]] scalar decode_scalar(byte_view data) const override {
    expects(data.size() == 8, "toy scalar must be 8 bytes");
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data[static_cast<std::size_t>(i)];
    expects(v < k_q, "toy scalar out of range");
    return make_scalar(v);
  }

  [[nodiscard]] std::vector<group_element> decode_batch(
      std::span<const byte_view> data) const override {
    std::vector<std::uint64_t> out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      out[i] = decode_value(data[i]);
    }
    return wrap_batch(out);
  }

  [[nodiscard]] std::size_t count_non_identity(
      std::span<const byte_view> encodings) const override {
    std::size_t count = 0;
    for (const auto& e : encodings) {
      if (decode_value(e) != 1) ++count;
    }
    return count;
  }

 private:
  // A table build is windows * 2^width multiplies; only worth it when the
  // batch amortizes it below the ~91 multiplies of a plain square-and-
  // multiply exponentiation.
  static constexpr std::size_t k_comb_min_batch = 16;

  /// The width-8 comb table for `base`: the cached one, else one built now
  /// for a batch of `batch` products that amortizes it, else nullptr. The
  /// cache holds the handful of fixed bases a process ever batches against
  /// (joint public keys); a tiny FIFO bound keeps adversarial base churn
  /// from growing it.
  [[nodiscard]] std::shared_ptr<const comb_table> cached_comb(
      std::uint64_t base, std::size_t batch) const {
    std::lock_guard<std::mutex> lock{comb_mutex_};
    for (const auto& [cached_base, table] : comb_cache_) {
      if (cached_base == base) return table;
    }
    if (batch < k_comb_min_batch) return nullptr;
    auto table = std::make_shared<const comb_table>(build_comb(base, 8));
    if (comb_cache_.size() >= 8) comb_cache_.erase(comb_cache_.begin());
    comb_cache_.emplace_back(base, table);
    return table;
  }

  mutable std::mutex comb_mutex_;
  mutable std::vector<std::pair<std::uint64_t, std::shared_ptr<const comb_table>>>
      comb_cache_;

  /// Shared decode validation, without wrapping a handle (the batch decode
  /// and tally-count paths stay allocation-free per element).
  [[nodiscard]] static std::uint64_t decode_value(byte_view data) {
    expects(data.size() == 8, "toy element must be 8 bytes");
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data[static_cast<std::size_t>(i)];
    expects(v != 0 && v < k_p, "toy element out of range");
    return v;
  }

  [[nodiscard]] static group_element wrap(std::uint64_t value) {
    return group_element{
        std::shared_ptr<const void>{std::make_shared<element_box>(element_box{value})}};
  }

  /// One arena allocation for the whole batch; each handle aliases the
  /// arena's control block, so wrapping is a refcount bump per element.
  [[nodiscard]] static std::vector<group_element> wrap_batch(
      std::span<const std::uint64_t> values) {
    auto arena = std::make_shared<std::vector<element_box>>();
    arena->reserve(values.size());
    for (const auto v : values) arena->push_back(element_box{v});
    std::vector<group_element> out;
    out.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      out.push_back(group_element{
          std::shared_ptr<const void>{arena, &(*arena)[i]}});
    }
    return out;
  }

  [[nodiscard]] static std::uint64_t unwrap(const group_element& e) {
    expects(e.valid(), "group element must be valid");
    return static_cast<const element_box*>(e.impl_.get())->value;
  }

  [[nodiscard]] static scalar make_scalar(std::uint64_t value) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] =
        static_cast<std::uint8_t>(value >> (8 * i));
    return scalar{byte_view{bytes, 8}};  // inline storage, no heap
  }

  [[nodiscard]] static std::uint64_t scalar_value(const scalar& k) {
    expects(k.valid() && k.bytes().size() == 8, "toy scalar must be 8 bytes");
    const byte_view bytes = k.bytes();
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
    return v;
  }
};

std::shared_ptr<const group> make_toy_group() {
  return std::make_shared<toy_group>();
}

}  // namespace tormet::crypto
