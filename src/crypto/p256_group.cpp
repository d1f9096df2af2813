// NIST P-256 group backend over OpenSSL's EC_POINT API.
//
// Elements are heap EC_POINTs held by shared_ptr; scalars are 32-byte
// big-endian integers reduced modulo the curve order, stored inline in the
// scalar's small buffer. A thread_local BN_CTX avoids per-operation
// allocation; the batch paths go further and write results into a per-batch
// EC_POINT arena (one control block for the whole batch, handles alias into
// it) with scratch BIGNUM/EC_POINT state hoisted into thread_local storage
// and reused across batch calls.
//
// Fixed-base multiplication runs on precomputed tables. k·G uses the table
// the named curve already has (nistz256's constant-time windowed table on
// x86-64). k·Y for any other base — in PSC, the round's joint key Y, which
// every bin init and insert multiplies, and each CP's onward key, which its
// noise bits and rerandomizations multiply — uses a table built the first
// time bulk work against Y asks for one (a pass of at least 256 products,
// through prepare_fixed_base or a single mul_batch) and cached per base: a
// copy of the curve with Y as its generator, whose multiples
// EC_GROUP_precompute_mult lays out in that same table format. On a
// 4-vCPU x86-64 host under OpenSSL 3.0.19 that makes k·Y ~14 µs instead of
// ~80 µs, for a ~37 ms build per base. mul(p, k), which strip and decrypt
// call on a different point each time, stays the variable-base operation.
//
// Points cross the wire in SEC1's uncompressed form, 0x04 ‖ X ‖ Y (65
// bytes); the identity is the single byte 0x00. encode() converts through
// EC_POINT_point2oct, which inverts the point's Z on every call.
// encode_batch copies up to 1024 points, normalizes the copies with
// EC_POINTs_make_affine (one inversion for the block) and writes each
// point's X and Y: 0.7–1.4 µs per point against encode()'s 5.9–6.7 µs, the
// same bytes (one thread of a 4-vCPU x86-64 host under OpenSSL 3.0.19).
// Decoding takes X and Y as they are and checks the curve equation,
// ~1.5 µs, where the 33-byte compressed form must recover Y with a square
// root: 20–28 µs per point on a 4-vCPU x86-64 host under OpenSSL 3.0.19.
// The 32 extra bytes cost less than that square root on any link faster
// than ~13 Mbit/s per decoding core. A wire ciphertext is 134 bytes with
// its length prefix, so the largest PSC vector the fabric's 256 MiB
// message bound carries fell from ~3.9M ciphertexts (compressed) to
// ~2.0M; no plan or test comes near that, and psc_slow_test's largest
// round has 2^16 bins. decode accepts exactly the two encodings encode
// writes and throws on any other, the compressed and hybrid forms OpenSSL
// would take included, so every point has one wire form.
#include <openssl/bn.h>
#include <openssl/ec.h>
#include <openssl/obj_mac.h>

#include <array>
#include <mutex>
#include <stdexcept>

#include "src/crypto/group.h"
#include "src/util/check.h"

namespace tormet::crypto {

namespace {

constexpr std::size_t k_scalar_bytes = 32;
// Uncompressed point: the tag, then X and Y. The point at infinity
// serializes to the single byte 0x00.
constexpr std::size_t k_coordinate_bytes = 32;
constexpr std::size_t k_point_bytes = 1 + 2 * k_coordinate_bytes;
constexpr std::uint8_t k_uncompressed_tag = 0x04;
constexpr std::uint8_t k_infinity_tag = 0x00;

// encode_batch normalizes at most this many points per field inversion:
// a batch engine chunk's worth (512 ciphertexts, two points each).
constexpr std::size_t k_encode_block = 1024;

/// Throws unless `data` is one of the two encodings encode() writes.
void expect_canonical_point(byte_view data) {
  expects((data.size() == k_point_bytes && data[0] == k_uncompressed_tag) ||
              (data.size() == 1 && data[0] == k_infinity_tag),
          "p256 point must be 0x04 ‖ X ‖ Y or the identity's 0x00");
}

void ossl_check(int rc, const char* what) {
  if (rc != 1) throw std::runtime_error{std::string{"openssl failure in "} + what};
}

template <typename T>
T* ossl_require(T* p, const char* what) {
  if (p == nullptr) throw std::runtime_error{std::string{"openssl alloc failure in "} + what};
  return p;
}

/// Writes a field element as k_coordinate_bytes big-endian bytes.
void write_coordinate(const BIGNUM* v, std::uint8_t* out) {
  if (BN_bn2binpad(v, out, static_cast<int>(k_coordinate_bytes)) < 0) {
    throw std::runtime_error{"BN_bn2binpad failed"};
  }
}

struct bn_ctx_holder {
  BN_CTX* ctx = nullptr;
  bn_ctx_holder() : ctx{ossl_require(BN_CTX_new(), "BN_CTX_new")} {}
  ~bn_ctx_holder() { BN_CTX_free(ctx); }
};

BN_CTX* tls_bn_ctx() {
  thread_local bn_ctx_holder holder;
  return holder.ctx;
}

struct bignum {
  BIGNUM* bn = nullptr;
  bignum() : bn{ossl_require(BN_new(), "BN_new")} {}
  explicit bignum(BIGNUM* owned) : bn{owned} {}
  ~bignum() { BN_free(bn); }
  bignum(const bignum&) = delete;
  bignum& operator=(const bignum&) = delete;
};

struct point_deleter {
  void operator()(EC_POINT* p) const noexcept { EC_POINT_free(p); }
};
using point_ptr = std::shared_ptr<EC_POINT>;

/// Per-batch output arena: owns every EC_POINT of one batch through a single
/// shared control block. Handles alias into it, so wrapping a batch result
/// costs one refcount bump per element instead of one shared_ptr control
/// block allocation each.
struct point_arena {
  std::vector<EC_POINT*> pts;
  point_arena() = default;
  point_arena(const point_arena&) = delete;
  point_arena& operator=(const point_arena&) = delete;
  ~point_arena() {
    for (EC_POINT* p : pts) EC_POINT_free(p);
  }
};

/// Thread-local scratch reused across batch calls on one curve: BIGNUMs for
/// scalar conversions and encode_batch's coordinates, an EC_POINT for
/// intermediates (negation in sub_batch, the decode of count_non_identity)
/// and encode_batch's copies. Lazily bound to the curve — make_group()
/// hands out one group instance per backend, so in practice the binding
/// happens once per thread.
struct batch_scratch {
  const EC_GROUP* curve = nullptr;
  BIGNUM* bn = nullptr;
  BIGNUM* y = nullptr;
  EC_POINT* tmp = nullptr;
  std::vector<EC_POINT*> affine;  // grown on demand, up to k_encode_block
  ~batch_scratch() { release(); }
  void release() {
    BN_free(bn);
    BN_free(y);
    EC_POINT_free(tmp);
    for (EC_POINT* p : affine) EC_POINT_free(p);
    affine.clear();
  }
};

[[nodiscard]] batch_scratch& tls_scratch(const EC_GROUP* curve) {
  thread_local batch_scratch scratch;
  if (scratch.curve != curve) {
    scratch.release();
    scratch.curve = curve;
    scratch.bn = ossl_require(BN_new(), "BN_new");
    scratch.y = ossl_require(BN_new(), "BN_new");
    scratch.tmp = ossl_require(EC_POINT_new(curve), "EC_POINT_new");
  }
  return scratch;
}

// A table repays its ~37 ms build after ~560 scalars (~66 µs saved each).
// A batch of at least this many scalars against one base is bulk work — a
// DC's bin init, a CP's noise or mix pass, which the batch engine hands
// over in shards of up to 512 — whose other shards, inserts and later
// passes against the same key repay the rest. A smaller batch builds
// nothing: it uses the base's table when one exists and the
// variable-base loop otherwise.
constexpr std::size_t k_table_min_batch = 256;
// Tables are ~150 KiB each; a process batches against one joint key per
// round, so a few cover it and a FIFO bound keeps base churn from growing
// the cache.
constexpr std::size_t k_table_cache_size = 4;

/// A fixed base and a copy of the curve with that base as its generator
/// and the generator's multiples precomputed: EC_POINT_mul(table, r, k,
/// nullptr, nullptr, ctx) computes k·base through the curve's fixed-base
/// path.
struct fixed_base_table {
  group_element base;  // the cache key
  EC_GROUP* table = nullptr;
  fixed_base_table() = default;
  fixed_base_table(const fixed_base_table&) = delete;
  fixed_base_table& operator=(const fixed_base_table&) = delete;
  ~fixed_base_table() { EC_GROUP_free(table); }
};

/// Precomputes the generator multiples of `table`. EC_GROUP_precompute_mult
/// is deprecated since OpenSSL 3.0 but present in every 3.x release, and it
/// is the one public call that gives an arbitrary base the named curve's
/// fixed-base table; this is its only use. Without the 3.0 API it reports
/// failure, and mul_batch keeps the variable-base loop.
[[nodiscard]] bool precompute_generator_multiples(EC_GROUP* table,
                                                  BN_CTX* ctx) {
#ifdef OPENSSL_NO_DEPRECATED_3_0
  (void)table;
  (void)ctx;
  return false;
#else
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  return EC_GROUP_precompute_mult(table, ctx) == 1;
#pragma GCC diagnostic pop
#endif
}

}  // namespace

class p256_group final : public group {
 public:
  p256_group()
      : curve_{ossl_require(EC_GROUP_new_by_curve_name(NID_X9_62_prime256v1),
                            "EC_GROUP_new_by_curve_name")} {
    order_ = EC_GROUP_get0_order(curve_);
    if (order_ == nullptr) throw std::runtime_error{"EC_GROUP_get0_order failed"};
    // The named curve needs no EC_GROUP_precompute_mult: OpenSSL 3 ships
    // its generator's table. Other bases get theirs from cached_table.
  }

  ~p256_group() override { EC_GROUP_free(curve_); }
  p256_group(const p256_group&) = delete;
  p256_group& operator=(const p256_group&) = delete;

  [[nodiscard]] std::string name() const override { return "p256"; }

  [[nodiscard]] scalar random_scalar(secure_rng& rng) const override {
    // Rejection-sample 32-byte strings below the order; skip zero.
    byte_buffer buf(k_scalar_bytes);
    bignum candidate;
    for (;;) {
      rng.fill(buf);
      ossl_require(BN_bin2bn(buf.data(), static_cast<int>(buf.size()), candidate.bn),
                   "BN_bin2bn");
      if (BN_cmp(candidate.bn, order_) < 0 && !BN_is_zero(candidate.bn)) {
        return make_scalar_from_bn(candidate.bn);
      }
    }
  }

  [[nodiscard]] scalar scalar_from_u64(std::uint64_t value) const override {
    bignum bn;
    ossl_check(BN_set_word(bn.bn, value), "BN_set_word");
    return make_scalar_from_bn(bn.bn);
  }

  [[nodiscard]] group_element identity() const override {
    point_ptr p = new_point();
    ossl_check(EC_POINT_set_to_infinity(curve_, p.get()), "EC_POINT_set_to_infinity");
    return wrap(std::move(p));
  }

  [[nodiscard]] group_element generator() const override {
    point_ptr p = new_point();
    ossl_check(EC_POINT_copy(p.get(), EC_GROUP_get0_generator(curve_)),
               "EC_POINT_copy");
    return wrap(std::move(p));
  }

  [[nodiscard]] group_element mul_generator(const scalar& k) const override {
    bignum bn;
    to_bn(k, bn.bn);
    point_ptr p = new_point();
    ossl_check(EC_POINT_mul(curve_, p.get(), bn.bn, nullptr, nullptr, tls_bn_ctx()),
               "EC_POINT_mul(gen)");
    return wrap(std::move(p));
  }

  [[nodiscard]] group_element mul(const group_element& p, const scalar& k) const override {
    bignum bn;
    to_bn(k, bn.bn);
    point_ptr r = new_point();
    ossl_check(EC_POINT_mul(curve_, r.get(), nullptr, unwrap(p), bn.bn, tls_bn_ctx()),
               "EC_POINT_mul");
    return wrap(std::move(r));
  }

  [[nodiscard]] group_element add(const group_element& a, const group_element& b) const override {
    point_ptr r = new_point();
    ossl_check(EC_POINT_add(curve_, r.get(), unwrap(a), unwrap(b), tls_bn_ctx()),
               "EC_POINT_add");
    return wrap(std::move(r));
  }

  [[nodiscard]] group_element negate(const group_element& a) const override {
    point_ptr r = new_point();
    ossl_check(EC_POINT_copy(r.get(), unwrap(a)), "EC_POINT_copy");
    ossl_check(EC_POINT_invert(curve_, r.get(), tls_bn_ctx()), "EC_POINT_invert");
    return wrap(std::move(r));
  }

  [[nodiscard]] bool is_identity(const group_element& a) const override {
    return EC_POINT_is_at_infinity(curve_, unwrap(a)) == 1;
  }

  [[nodiscard]] bool equal(const group_element& a, const group_element& b) const override {
    const int rc = EC_POINT_cmp(curve_, unwrap(a), unwrap(b), tls_bn_ctx());
    if (rc < 0) throw std::runtime_error{"EC_POINT_cmp failed"};
    return rc == 0;
  }

  [[nodiscard]] byte_buffer encode(const group_element& a) const override {
    byte_buffer out(k_point_bytes);
    const std::size_t written =
        EC_POINT_point2oct(curve_, unwrap(a), POINT_CONVERSION_UNCOMPRESSED,
                           out.data(), out.size(), tls_bn_ctx());
    if (written == 0) throw std::runtime_error{"EC_POINT_point2oct failed"};
    out.resize(written);  // infinity serializes to 1 byte
    return out;
  }

  // EC_POINTs_make_affine and EC_POINT_get_Jprojective_coordinates_GFp are
  // deprecated since OpenSSL 3.0, like EC_GROUP_precompute_mult, and present
  // in every 3.x release. The non-deprecated
  // EC_POINT_get_affine_coordinates inverts Z on every call, even when Z is
  // already one. Without the 3.0 API this loops encode(), which writes the
  // same bytes.
  [[nodiscard]] std::vector<byte_buffer> encode_batch(
      std::span<const group_element> elements) const override {
#ifdef OPENSSL_NO_DEPRECATED_3_0
    return group::encode_batch(elements);
#else
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    BN_CTX* ctx = tls_bn_ctx();
    batch_scratch& scratch = tls_scratch(curve_);
    std::vector<byte_buffer> out;
    out.reserve(elements.size());
    // Normalize copies, a block at a time: a handle may be shared (a strip
    // keeps its input's a points), so the caller's points stay as they
    // were, and the copies stay bounded however long the batch is.
    std::vector<EC_POINT*>& pts = scratch.affine;
    for (std::size_t begin = 0; begin < elements.size();
         begin += k_encode_block) {
      const std::size_t n = std::min(k_encode_block, elements.size() - begin);
      while (pts.size() < n) {
        pts.push_back(ossl_require(EC_POINT_new(curve_), "EC_POINT_new"));
      }
      for (std::size_t i = 0; i < n; ++i) {
        ossl_check(EC_POINT_copy(pts[i], unwrap(elements[begin + i])),
                   "EC_POINT_copy");
      }
      ossl_check(EC_POINTs_make_affine(curve_, n, pts.data(), ctx),
                 "EC_POINTs_make_affine");
      for (std::size_t i = 0; i < n; ++i) {
        if (EC_POINT_is_at_infinity(curve_, pts[i]) == 1) {
          out.push_back({k_infinity_tag});
          continue;
        }
        // Z is one now, so the Jacobian X and Y are the affine ones.
        ossl_check(EC_POINT_get_Jprojective_coordinates_GFp(
                       curve_, pts[i], scratch.bn, scratch.y, nullptr, ctx),
                   "EC_POINT_get_Jprojective_coordinates_GFp");
        byte_buffer enc(k_point_bytes);
        enc[0] = k_uncompressed_tag;
        write_coordinate(scratch.bn, &enc[1]);
        write_coordinate(scratch.y, &enc[1 + k_coordinate_bytes]);
        out.push_back(std::move(enc));
      }
    }
    return out;
#pragma GCC diagnostic pop
#endif
  }

  [[nodiscard]] group_element decode(byte_view data) const override {
    expect_canonical_point(data);
    point_ptr p = new_point();
    ossl_check(EC_POINT_oct2point(curve_, p.get(), data.data(), data.size(),
                                  tls_bn_ctx()),
               "EC_POINT_oct2point");
    return wrap(std::move(p));
  }

  // Batch fast paths: one BN_CTX and the thread_local scratch (BIGNUM +
  // EC_POINT, reused across calls) instead of fresh allocations per call,
  // and every output point lives in a per-batch arena — one shared control
  // block for the whole batch, zero per-element heap nodes on our side
  // (OpenSSL still allocates inside EC_POINT_new, which the public EC API
  // cannot avoid).
  [[nodiscard]] std::vector<group_element> mul_generator_batch(
      std::span<const scalar> ks) const override {
    BN_CTX* ctx = tls_bn_ctx();
    batch_scratch& scratch = tls_scratch(curve_);
    auto arena = new_arena(ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      to_bn(ks[i], scratch.bn);
      ossl_check(EC_POINT_mul(curve_, arena->pts[i], scratch.bn, nullptr,
                              nullptr, ctx),
                 "EC_POINT_mul(gen)");
    }
    return wrap_arena(std::move(arena));
  }

  [[nodiscard]] std::vector<group_element> mul_batch(
      const group_element& base, std::span<const scalar> ks) const override {
    auto arena = new_arena(ks.size());
    if (is_identity(base)) {
      // k·∞ = ∞, which OpenSSL takes ~83 µs to find. A PSC chain's last CP
      // encrypts and rerandomizes under the identity.
      for (EC_POINT* p : arena->pts) {
        ossl_check(EC_POINT_set_to_infinity(curve_, p),
                   "EC_POINT_set_to_infinity");
      }
      return wrap_arena(std::move(arena));
    }
    BN_CTX* ctx = tls_bn_ctx();
    batch_scratch& scratch = tls_scratch(curve_);
    const EC_POINT* b = unwrap(base);
    const std::shared_ptr<const fixed_base_table> t =
        cached_table(base, ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      to_bn(ks[i], scratch.bn);
      ossl_check(t != nullptr ? EC_POINT_mul(t->table, arena->pts[i], scratch.bn,
                                             nullptr, nullptr, ctx)
                              : EC_POINT_mul(curve_, arena->pts[i], nullptr, b,
                                             scratch.bn, ctx),
                 "EC_POINT_mul");
    }
    return wrap_arena(std::move(arena));
  }

  void prepare_fixed_base(const group_element& base,
                          std::size_t products) const override {
    if (!is_identity(base)) (void)cached_table(base, products);
  }

  [[nodiscard]] std::vector<group_element> mul_batch(
      std::span<const group_element> pts, const scalar& k) const override {
    BN_CTX* ctx = tls_bn_ctx();
    batch_scratch& scratch = tls_scratch(curve_);
    to_bn(k, scratch.bn);  // converted once for the whole batch
    auto arena = new_arena(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ossl_check(EC_POINT_mul(curve_, arena->pts[i], nullptr, unwrap(pts[i]),
                              scratch.bn, ctx),
                 "EC_POINT_mul");
    }
    return wrap_arena(std::move(arena));
  }

  [[nodiscard]] std::vector<group_element> add_batch(
      std::span<const group_element> a,
      std::span<const group_element> b) const override {
    expects(a.size() == b.size(), "add_batch spans must have equal length");
    BN_CTX* ctx = tls_bn_ctx();
    auto arena = new_arena(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ossl_check(EC_POINT_add(curve_, arena->pts[i], unwrap(a[i]), unwrap(b[i]),
                              ctx),
                 "EC_POINT_add");
    }
    return wrap_arena(std::move(arena));
  }

  [[nodiscard]] std::vector<group_element> sub_batch(
      std::span<const group_element> a,
      std::span<const group_element> b) const override {
    expects(a.size() == b.size(), "sub_batch spans must have equal length");
    BN_CTX* ctx = tls_bn_ctx();
    batch_scratch& scratch = tls_scratch(curve_);
    auto arena = new_arena(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ossl_check(EC_POINT_copy(scratch.tmp, unwrap(b[i])), "EC_POINT_copy");
      ossl_check(EC_POINT_invert(curve_, scratch.tmp, ctx), "EC_POINT_invert");
      ossl_check(EC_POINT_add(curve_, arena->pts[i], unwrap(a[i]), scratch.tmp,
                              ctx),
                 "EC_POINT_add");
    }
    return wrap_arena(std::move(arena));
  }

  [[nodiscard]] std::vector<group_element> decode_batch(
      std::span<const byte_view> data) const override {
    BN_CTX* ctx = tls_bn_ctx();
    auto arena = new_arena(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      expect_canonical_point(data[i]);
      ossl_check(EC_POINT_oct2point(curve_, arena->pts[i], data[i].data(),
                                    data[i].size(), ctx),
                 "EC_POINT_oct2point");
    }
    return wrap_arena(std::move(arena));
  }

  [[nodiscard]] std::size_t count_non_identity(
      std::span<const byte_view> encodings) const override {
    BN_CTX* ctx = tls_bn_ctx();
    batch_scratch& scratch = tls_scratch(curve_);
    std::size_t count = 0;
    for (const auto& e : encodings) {
      expect_canonical_point(e);
      ossl_check(EC_POINT_oct2point(curve_, scratch.tmp, e.data(), e.size(), ctx),
                 "EC_POINT_oct2point");
      if (EC_POINT_is_at_infinity(curve_, scratch.tmp) != 1) ++count;
    }
    return count;
  }

  [[nodiscard]] scalar decode_scalar(byte_view data) const override {
    expects(data.size() == k_scalar_bytes, "p256 scalar must be 32 bytes");
    bignum bn;
    ossl_require(BN_bin2bn(data.data(), static_cast<int>(data.size()), bn.bn),
                 "BN_bin2bn");
    expects(BN_cmp(bn.bn, order_) < 0, "scalar must be below group order");
    return make_scalar_from_bn(bn.bn);
  }

 private:
  /// The table for `base`: the cached one, else one built now when a batch
  /// of `batch` scalars is bulk work, else nullptr (variable-base loop).
  /// The lock is held through a build, so concurrent first batches against
  /// a fresh base build it once.
  [[nodiscard]] std::shared_ptr<const fixed_base_table> cached_table(
      const group_element& base, std::size_t batch) const {
    std::lock_guard<std::mutex> lock{table_mutex_};
    for (const auto& t : table_cache_) {
      if (equal(t->base, base)) return t;
    }
    if (batch < k_table_min_batch) return nullptr;
    auto t = std::make_shared<fixed_base_table>();
    // A decoded copy is affine, so comparing it with a key decoded off the
    // wire is a coordinate compare.
    t->base = decode(encode(base));
    t->table = ossl_require(EC_GROUP_dup(curve_), "EC_GROUP_dup");
    ossl_check(EC_GROUP_set_generator(t->table, unwrap(t->base), order_,
                                      EC_GROUP_get0_cofactor(curve_)),
               "EC_GROUP_set_generator");
    if (!precompute_generator_multiples(t->table, tls_bn_ctx())) {
      return nullptr;
    }
    if (table_cache_.size() >= k_table_cache_size) {
      table_cache_.erase(table_cache_.begin());
    }
    table_cache_.push_back(t);
    return t;
  }

  [[nodiscard]] point_ptr new_point() const {
    return {ossl_require(EC_POINT_new(curve_), "EC_POINT_new"), point_deleter{}};
  }

  /// Arena with `n` fresh points, ready for batch outputs.
  [[nodiscard]] std::shared_ptr<point_arena> new_arena(std::size_t n) const {
    auto arena = std::make_shared<point_arena>();
    arena->pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      arena->pts.push_back(ossl_require(EC_POINT_new(curve_), "EC_POINT_new"));
    }
    return arena;
  }

  /// Handles aliasing the arena's control block (refcount bump per element).
  [[nodiscard]] static std::vector<group_element> wrap_arena(
      std::shared_ptr<point_arena> arena) {
    std::vector<group_element> out;
    out.reserve(arena->pts.size());
    for (EC_POINT* p : arena->pts) {
      out.push_back(group_element{std::shared_ptr<const void>{arena, p}});
    }
    return out;
  }

  [[nodiscard]] static group_element wrap(point_ptr p) {
    return group_element{std::shared_ptr<const void>{std::move(p)}};
  }

  [[nodiscard]] const EC_POINT* unwrap(const group_element& e) const {
    expects(e.valid(), "group element must be valid");
    return static_cast<const EC_POINT*>(e.impl_.get());
  }

  [[nodiscard]] scalar make_scalar_from_bn(const BIGNUM* bn) const {
    std::array<std::uint8_t, k_scalar_bytes> bytes;
    const int rc = BN_bn2binpad(bn, bytes.data(), static_cast<int>(bytes.size()));
    if (rc < 0) throw std::runtime_error{"BN_bn2binpad failed"};
    return scalar{byte_view{bytes}};  // inline storage, no heap
  }

  void to_bn(const scalar& k, BIGNUM* out) const {
    expects(k.valid(), "scalar must be valid");
    ossl_require(
        BN_bin2bn(k.bytes().data(), static_cast<int>(k.bytes().size()), out),
        "BN_bin2bn");
  }

  EC_GROUP* curve_;
  const BIGNUM* order_ = nullptr;
  mutable std::mutex table_mutex_;
  mutable std::vector<std::shared_ptr<const fixed_base_table>> table_cache_;
};

std::shared_ptr<const group> make_p256_group() {
  return std::make_shared<p256_group>();
}

}  // namespace tormet::crypto
