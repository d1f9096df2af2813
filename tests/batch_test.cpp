// Batch-engine layer tests: batch-vs-scalar equivalence for the group and
// ElGamal batch APIs on both backends, thread-pool semantics, worker-count
// determinism of the seeded engine paths, and known-answer digests of the
// p256 batch paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/crypto/secure_rng.h"
#include "src/crypto/sha256.h"
#include "src/psc/oblivious_set.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace tormet::crypto {
namespace {

// ---------------------------------------------------------------------------
// thread_pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  util::thread_pool pool{4};
  constexpr std::size_t n = 10007;  // prime: many ragged chunk edges
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunEveryChunkInlineInOrder) {
  util::thread_pool pool{0};
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(10, 4, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.emplace_back(begin, end);
  });
  const std::vector<std::pair<std::size_t, std::size_t>> want{
      {0, 4}, {4, 8}, {8, 10}};
  EXPECT_EQ(chunks, want);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  util::thread_pool pool{2};
  bool called = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  util::thread_pool pool{3};
  EXPECT_THROW(
      pool.parallel_for(1000, 10,
                        [](std::size_t begin, std::size_t) {
                          if (begin >= 500) throw std::runtime_error{"boom"};
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 100u);
}

// ---------------------------------------------------------------------------
// group batch ops vs scalar ops (both backends)
// ---------------------------------------------------------------------------

class GroupBatchTest : public ::testing::TestWithParam<group_backend> {
 protected:
  [[nodiscard]] std::shared_ptr<const group> make() const {
    return make_group(GetParam());
  }
  // Batch sizes that cross the toy comb-table thresholds (8 and 256) while
  // staying affordable on p256.
  [[nodiscard]] std::vector<std::size_t> sizes() const {
    if (GetParam() == group_backend::toy) return {0, 1, 7, 9, 300};
    return {0, 1, 7, 9};
  }
};

void expect_same_elements(const group& g,
                          const std::vector<group_element>& got,
                          const std::vector<group_element>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(g.encode(got[i]), g.encode(want[i])) << "index " << i;
  }
}

TEST_P(GroupBatchTest, MulGeneratorBatchMatchesScalarPath) {
  const auto g = make();
  deterministic_rng rng{1};
  for (const std::size_t n : sizes()) {
    std::vector<scalar> ks;
    for (std::size_t i = 0; i < n; ++i) ks.push_back(g->random_scalar(rng));
    std::vector<group_element> want;
    for (const auto& k : ks) want.push_back(g->mul_generator(k));
    expect_same_elements(*g, g->mul_generator_batch(ks), want);
  }
}

TEST_P(GroupBatchTest, FixedBaseMulBatchMatchesScalarPath) {
  const auto g = make();
  deterministic_rng rng{2};
  const group_element base = g->random_element(rng);
  for (const std::size_t n : sizes()) {
    std::vector<scalar> ks;
    for (std::size_t i = 0; i < n; ++i) ks.push_back(g->random_scalar(rng));
    std::vector<group_element> want;
    for (const auto& k : ks) want.push_back(g->mul(base, k));
    expect_same_elements(*g, g->mul_batch(base, ks), want);
  }
}

TEST_P(GroupBatchTest, FixedScalarMulBatchMatchesScalarPath) {
  const auto g = make();
  deterministic_rng rng{3};
  const scalar k = g->random_scalar(rng);
  for (const std::size_t n : sizes()) {
    std::vector<group_element> pts;
    for (std::size_t i = 0; i < n; ++i) pts.push_back(g->random_element(rng));
    std::vector<group_element> want;
    for (const auto& p : pts) want.push_back(g->mul(p, k));
    expect_same_elements(*g, g->mul_batch(pts, k), want);
  }
}

TEST_P(GroupBatchTest, AddAndSubBatchMatchScalarPath) {
  const auto g = make();
  deterministic_rng rng{4};
  for (const std::size_t n : sizes()) {
    std::vector<group_element> a, b;
    for (std::size_t i = 0; i < n; ++i) {
      a.push_back(g->random_element(rng));
      b.push_back(g->random_element(rng));
    }
    std::vector<group_element> want_add, want_sub;
    for (std::size_t i = 0; i < n; ++i) {
      want_add.push_back(g->add(a[i], b[i]));
      want_sub.push_back(g->sub(a[i], b[i]));
    }
    expect_same_elements(*g, g->add_batch(a, b), want_add);
    expect_same_elements(*g, g->sub_batch(a, b), want_sub);
  }
}

TEST_P(GroupBatchTest, MulBatchAgainstTheIdentityIsTheIdentity) {
  // k·0 = 0: the shortcut answers on both sides of p256's table threshold
  // (256 scalars), for the identity as built and as decoded off the wire,
  // the way a PSC chain's last CP receives its onward key.
  const auto g = make();
  deterministic_rng rng{6};
  for (const group_element& base :
       {g->identity(), g->decode(g->encode(g->identity()))}) {
    for (const std::size_t n : {1u, 255u, 256u, 1024u}) {
      std::vector<scalar> ks;
      for (std::size_t i = 0; i < n; ++i) ks.push_back(g->random_scalar(rng));
      const std::vector<group_element> out = g->mul_batch(base, ks);
      ASSERT_EQ(out.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(g->is_identity(out[i])) << "n " << n << ", index " << i;
      }
    }
  }
}

TEST_P(GroupBatchTest, EncodeBatchMatchesEncodeAndLeavesItsInput) {
  // Points in every form a batch meets: the identity, Jacobian outputs of
  // mul_batch and add_batch, and affine points decoded off the wire. p256
  // normalizes copies with one inversion per block of 1024 points, so
  // sizes straddle the engine's 32-element chunk floor, its 512-element
  // shards and that block, and the inputs must encode the same afterwards.
  const auto g = make();
  deterministic_rng rng{7};
  const group_element base = g->random_element(rng);
  for (const std::size_t n : {0u, 1u, 31u, 32u, 33u, 512u, 513u, 1025u}) {
    std::vector<scalar> ks;
    for (std::size_t i = 0; i < n; ++i) ks.push_back(g->random_scalar(rng));
    const std::vector<group_element> products = g->mul_batch(base, ks);
    const std::vector<group_element> sums =
        g->add_batch(products, g->mul_generator_batch(ks));
    std::vector<group_element> points;
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0: points.push_back(g->identity()); break;
        case 1: points.push_back(products[i]); break;
        case 2: points.push_back(sums[i]); break;
        default: points.push_back(g->decode(g->encode(products[i])));
      }
    }
    std::vector<byte_buffer> want;
    for (const auto& p : points) want.push_back(g->encode(p));
    EXPECT_EQ(g->encode_batch(points), want) << "n " << n;
    std::vector<byte_buffer> after;
    for (const auto& p : points) after.push_back(g->encode(p));
    EXPECT_EQ(after, want) << "n " << n;
  }
}

TEST_P(GroupBatchTest, MismatchedSpansRejected) {
  const auto g = make();
  deterministic_rng rng{5};
  const std::vector<group_element> one{g->random_element(rng)};
  const std::vector<group_element> two{g->random_element(rng),
                                       g->random_element(rng)};
  EXPECT_THROW((void)g->add_batch(one, two), precondition_error);
  EXPECT_THROW((void)g->sub_batch(one, two), precondition_error);
}

INSTANTIATE_TEST_SUITE_P(Backends, GroupBatchTest,
                         ::testing::Values(group_backend::toy,
                                           group_backend::p256),
                         [](const auto& info) {
                           return info.param == group_backend::toy ? "Toy"
                                                                   : "P256";
                         });

// ---------------------------------------------------------------------------
// elgamal batch APIs: bit-identical to the serial loops on the same RNG
// stream
// ---------------------------------------------------------------------------

class ElgamalBatchTest : public GroupBatchTest {};

void expect_same_cts(const elgamal& scheme,
                     const std::vector<elgamal_ciphertext>& got,
                     const std::vector<elgamal_ciphertext>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(scheme.encode(got[i]), scheme.encode(want[i])) << "index " << i;
  }
}

TEST_P(ElgamalBatchTest, EncryptZeroBatchBitIdenticalToSerial) {
  const elgamal scheme{make()};
  deterministic_rng rng_a{7}, rng_b{7};
  const auto kp = scheme.generate_keypair(rng_a);
  (void)scheme.generate_keypair(rng_b);  // keep the streams aligned
  for (const std::size_t n : sizes()) {
    std::vector<elgamal_ciphertext> want;
    for (std::size_t i = 0; i < n; ++i) {
      want.push_back(scheme.encrypt_zero(kp.pub, rng_a));
    }
    expect_same_cts(scheme, scheme.encrypt_zero_batch(kp.pub, n, rng_b), want);
  }
}

TEST_P(ElgamalBatchTest, EncryptBitsBatchBitIdenticalToSerial) {
  const elgamal scheme{make()};
  deterministic_rng rng_a{8}, rng_b{8};
  const auto kp = scheme.generate_keypair(rng_a);
  (void)scheme.generate_keypair(rng_b);
  const std::vector<std::uint8_t> bits{1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1};
  std::vector<elgamal_ciphertext> want;
  for (const auto bit : bits) {
    want.push_back(bit != 0 ? scheme.encrypt_one(kp.pub, rng_a)
                            : scheme.encrypt_zero(kp.pub, rng_a));
  }
  expect_same_cts(scheme, scheme.encrypt_bits_batch(kp.pub, bits, rng_b), want);
}

TEST_P(ElgamalBatchTest, RerandomizeBatchBitIdenticalToSerial) {
  const elgamal scheme{make()};
  deterministic_rng rng_a{9}, rng_b{9};
  const auto kp = scheme.generate_keypair(rng_a);
  (void)scheme.generate_keypair(rng_b);
  for (const std::size_t n : sizes()) {
    // Shared input built from an independent stream so both paths see the
    // same ciphertexts and stay aligned.
    deterministic_rng input_rng{100 + n};
    const auto cts = scheme.encrypt_zero_batch(kp.pub, n, input_rng);
    std::vector<elgamal_ciphertext> want;
    for (const auto& ct : cts) {
      want.push_back(scheme.rerandomize(kp.pub, ct, rng_a));
    }
    expect_same_cts(scheme, scheme.rerandomize_batch(kp.pub, cts, rng_b), want);
  }
}

TEST_P(ElgamalBatchTest, StripShareBatchMatchesSerial) {
  const elgamal scheme{make()};
  deterministic_rng rng{10};
  const auto kp = scheme.generate_keypair(rng);
  for (const std::size_t n : sizes()) {
    std::vector<elgamal_ciphertext> cts;
    for (std::size_t i = 0; i < n; ++i) {
      cts.push_back(i % 2 == 0 ? scheme.encrypt_one(kp.pub, rng)
                               : scheme.encrypt_zero(kp.pub, rng));
    }
    std::vector<elgamal_ciphertext> want;
    for (const auto& ct : cts) want.push_back(scheme.strip_share(ct, kp.secret));
    expect_same_cts(scheme, scheme.strip_share_batch(cts, kp.secret), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ElgamalBatchTest,
                         ::testing::Values(group_backend::toy,
                                           group_backend::p256),
                         [](const auto& info) {
                           return info.param == group_backend::toy ? "Toy"
                                                                   : "P256";
                         });

// ---------------------------------------------------------------------------
// batch_engine: worker-count independence and algebraic correctness
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, SameSeedSameOutputRegardlessOfWorkerCount) {
  const auto group = make_toy_group();
  const elgamal scheme{group};
  deterministic_rng rng{11};
  const auto kp = scheme.generate_keypair(rng);
  const sha256_digest seed = batch_engine::derive_seed(rng);
  const auto input = scheme.encrypt_zero_batch(kp.pub, 1500, rng);
  std::vector<std::uint8_t> bits(1500);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint8_t>(i % 3 == 0);
  }

  // Small shard size so every worker count actually splits the batch.
  const batch_engine reference{group, nullptr, 128};
  const auto want_zero = reference.encrypt_zero_batch(kp.pub, 1500, seed);
  const auto want_bits = reference.encrypt_bits_batch(kp.pub, bits, seed);
  const auto want_rerand = reference.rerandomize_batch(kp.pub, input, seed);

  // 0 workers is a node's pool on a one-core host: inline, shard by shard.
  for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
    const auto pool = std::make_shared<util::thread_pool>(workers);
    const batch_engine engine{group, pool, 128};
    expect_same_cts(scheme, engine.encrypt_zero_batch(kp.pub, 1500, seed),
                    want_zero);
    expect_same_cts(scheme, engine.encrypt_bits_batch(kp.pub, bits, seed),
                    want_bits);
    expect_same_cts(scheme, engine.rerandomize_batch(kp.pub, input, seed),
                    want_rerand);
  }
}

TEST(BatchEngineTest, DifferentSeedsDiverge) {
  const auto group = make_toy_group();
  deterministic_rng rng{12};
  const batch_engine engine{group, nullptr, 64};
  const auto kp = engine.scheme().generate_keypair(rng);
  const auto a = engine.encrypt_zero_batch(kp.pub, 10,
                                           batch_engine::derive_seed(rng));
  const auto b = engine.encrypt_zero_batch(kp.pub, 10,
                                           batch_engine::derive_seed(rng));
  EXPECT_NE(engine.scheme().encode(a[0]), engine.scheme().encode(b[0]));
}

TEST(BatchEngineTest, SeededPathsDecryptCorrectly) {
  const auto group = make_toy_group();
  const auto pool = std::make_shared<util::thread_pool>(4);
  const batch_engine engine{group, pool, 64};
  const elgamal& scheme = engine.scheme();
  deterministic_rng rng{13};
  const auto kp = scheme.generate_keypair(rng);
  std::vector<std::uint8_t> bits(700);
  std::size_t ones = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint8_t>(i % 5 == 0);
    ones += bits[i];
  }
  const auto cts =
      engine.encrypt_bits_batch(kp.pub, bits, batch_engine::derive_seed(rng));
  const auto rerand =
      engine.rerandomize_batch(kp.pub, cts, batch_engine::derive_seed(rng));
  const auto stripped = engine.strip_share_batch(rerand, kp.secret);
  std::size_t decrypted_ones = 0;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const bool is_one = !group->is_identity(stripped[i].b);
    EXPECT_EQ(is_one, bits[i] != 0) << "index " << i;
    decrypted_ones += is_one;
  }
  EXPECT_EQ(decrypted_ones, ones);
}

TEST(BatchEngineTest, EmptyAndSingletonBatches) {
  const auto group = make_toy_group();
  const auto pool = std::make_shared<util::thread_pool>(2);
  const batch_engine engine{group, pool};
  const elgamal& scheme = engine.scheme();
  deterministic_rng rng{14};
  const auto kp = scheme.generate_keypair(rng);
  const sha256_digest seed = batch_engine::derive_seed(rng);

  EXPECT_TRUE(engine.encrypt_zero_batch(kp.pub, 0, seed).empty());
  EXPECT_TRUE(engine.rerandomize_batch(kp.pub, {}, seed).empty());
  EXPECT_TRUE(engine.strip_share_batch({}, kp.secret).empty());
  EXPECT_TRUE(scheme.encrypt_zero_batch(kp.pub, 0, rng).empty());
  EXPECT_TRUE(scheme.strip_share_batch({}, kp.secret).empty());

  const auto one = engine.encrypt_zero_batch(kp.pub, 1, seed);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(group->is_identity(scheme.decrypt(kp.secret, one[0])));
  const auto rerand = engine.rerandomize_batch(kp.pub, one, seed);
  ASSERT_EQ(rerand.size(), 1u);
  EXPECT_TRUE(group->is_identity(scheme.decrypt(kp.secret, rerand[0])));
}

TEST(BatchEngineTest, PassesWithoutRandomnessGiveTheSameBytesAtEveryChunking) {
  // Decode, add, encode, strip and tally decode chunk by a grain
  // sized from n and the pool; the unpooled engine runs one chunk per
  // 512-element shard. Sizes fall below the 32-element floor, between it
  // and the shard cap, and past the cap for the small pools.
  const auto group = make_toy_group();
  const batch_engine reference{group};
  const elgamal& scheme = reference.scheme();
  deterministic_rng rng{17};
  const auto kp = scheme.generate_keypair(rng);
  for (const std::size_t n : {1u, 31u, 100u, 1000u, 9000u}) {
    std::vector<std::uint8_t> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      bits[i] = static_cast<std::uint8_t>(i % 2);
    }
    const auto ones = reference.encrypt_bits_batch(
        kp.pub, bits, batch_engine::derive_seed(rng));
    const auto zeros =
        reference.encrypt_zero_batch(kp.pub, n, batch_engine::derive_seed(rng));
    const auto wire = reference.encode_batch(ones);
    const auto want_sum = reference.add_batch(ones, zeros);
    const auto want_strip = reference.strip_share_batch(ones, kp.secret);
    const auto stripped_wire = reference.encode_batch(want_strip);
    const auto stripped_views = views_of(stripped_wire);
    ASSERT_EQ(reference.tally_decode_count(stripped_views), n / 2);

    for (const std::size_t workers : {0u, 1u, 3u, 8u}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " workers " << workers);
      const batch_engine engine{group,
                                std::make_shared<util::thread_pool>(workers)};
      EXPECT_EQ(engine.encode_batch(ones), wire);
      expect_same_cts(scheme, engine.decode_batch(views_of(wire)), ones);
      expect_same_cts(scheme, engine.add_batch(ones, zeros), want_sum);
      expect_same_cts(scheme, engine.strip_share_batch(ones, kp.secret),
                      want_strip);
      EXPECT_EQ(engine.tally_decode_count(stripped_views), n / 2);
    }
  }
}

// ---------------------------------------------------------------------------
// oblivious set engine init
// ---------------------------------------------------------------------------

TEST(ObliviousSetBatchTest, EngineInitMatchesSerialSemantics) {
  const auto group = make_toy_group();
  const auto pool = std::make_shared<util::thread_pool>(4);
  const batch_engine engine{group, pool, 64};
  const elgamal& scheme = engine.scheme();
  deterministic_rng rng{16};
  const auto kp = scheme.generate_keypair(rng);

  psc::oblivious_set set{engine, kp.pub, 512, rng};
  ASSERT_EQ(set.bins(), 512u);
  // Every bin decrypts to zero before any insert.
  for (const auto& slot : set.slots()) {
    EXPECT_TRUE(group->is_identity(scheme.decrypt(kp.secret, slot)));
  }
  set.insert(as_bytes("client-ip-1"), rng);
  std::size_t ones = 0;
  for (const auto& slot : set.slots()) {
    ones += !group->is_identity(scheme.decrypt(kp.secret, slot));
  }
  EXPECT_EQ(ones, 1u);
}

// ---------------------------------------------------------------------------
// p256 fixed-base tables: a batch of at least 256 scalars against one base
// builds a cached precomputed table, and the table path must give every
// product the variable-base path gives
// ---------------------------------------------------------------------------

/// SHA-256 of the encodings in order, each length-framed, under the tag
/// and framing the digests below were recorded with.
[[nodiscard]] std::string digest_hex(std::span<const byte_buffer> encoded) {
  sha256_hasher h;
  h.update("tormet.shuffle.ciphertexts.v1");
  for (const auto& enc : encoded) h.update_framed(enc);
  const sha256_digest d = h.finish();
  return to_hex(byte_view{d.data(), d.size()});
}

/// A point's compressed SEC1 form, built from its wire encoding (0x04 ‖ X
/// ‖ Y, or the identity's 0x00): 0x02 | the low bit of Y, then X.
[[nodiscard]] byte_buffer compressed_point(byte_view encoding) {
  if (encoding.size() == 1) return {encoding.begin(), encoding.end()};
  byte_buffer out{static_cast<std::uint8_t>(0x02 | (encoding.back() & 1))};
  out.insert(out.end(), encoding.begin() + 1, encoding.begin() + 33);
  return out;
}

/// digest_hex over each ciphertext with both points compressed: the
/// digest of the encoding p256 had before it sent uncompressed points.
[[nodiscard]] std::string compressed_digest_hex(
    const elgamal& scheme, std::span<const elgamal_ciphertext> cts) {
  std::vector<byte_buffer> encoded;
  for (const auto& ct : cts) {
    byte_buffer enc;
    for (const auto& point : {ct.a, ct.b}) {
      const byte_buffer c = compressed_point(scheme.grp().encode(point));
      enc.push_back(static_cast<std::uint8_t>(c.size()));
      enc.insert(enc.end(), c.begin(), c.end());
    }
    encoded.push_back(std::move(enc));
  }
  return digest_hex(encoded);
}

// The four digests were recorded on the variable-base path, before p256 had
// tables, and over compressed points, before p256 sent them uncompressed:
// every ciphertext must keep its value. The last digest, of the wire bytes,
// was recorded when points went uncompressed, and pins that format.
TEST(P256FixedBaseTest, KnownAnswerDigestsOfTheBatchPaths) {
  const batch_engine engine{make_group(group_backend::p256)};
  const elgamal& scheme = engine.scheme();
  deterministic_rng rng{1901};
  const auto kp = scheme.generate_keypair(rng);
  std::vector<std::uint8_t> bits(1024);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint8_t>(i % 3 == 0);
  }
  const auto zeros =
      engine.encrypt_zero_batch(kp.pub, 1024, batch_engine::derive_seed(rng));
  const auto noise =
      engine.encrypt_bits_batch(kp.pub, bits, batch_engine::derive_seed(rng));
  const auto rerand =
      engine.rerandomize_batch(kp.pub, noise, batch_engine::derive_seed(rng));
  // A DC table: bin init, then 300 seeded inserts in one batch (recorded
  // when each insert was a single encryption).
  psc::oblivious_set table{engine, kp.pub, 1024, rng};
  std::vector<psc::seeded_insert> inserts;
  for (std::uint64_t i = 0; i < 300; ++i) {
    inserts.push_back({(i * 37) % 1024, 0x5eed0000 + i});
  }
  table.insert_seeded(inserts);
  EXPECT_EQ(compressed_digest_hex(scheme, zeros),
            "d7e925502ef70b9426cda7aa5fab7050b39574d20f92f7e28e3721cc3b8193c5");
  EXPECT_EQ(compressed_digest_hex(scheme, noise),
            "d5633a58bc45cda3df7b7cd485442b20c4026009812eba6f69e1451b6a2bf881");
  EXPECT_EQ(compressed_digest_hex(scheme, rerand),
            "b7e52e01a1de74dcf426c6e664203473aa47a32687e3c5c86f31c4548c9fd6ab");
  EXPECT_EQ(compressed_digest_hex(scheme, table.slots()),
            "29311f4ba9be32d19d3453601be7585c33a9eb34dccac3b7a2935796638f3bb1");
  EXPECT_EQ(digest_hex(scheme.encode_batch(rerand)),
            "223a95a50f42e83b6959cbb6fa31063f565f9d464ced25d919be77c56d6f1c60");
}

/// Checks mul_batch(base, ks) — a table batch — and then each scalar alone
/// (a one-scalar batch, which uses the cached table when there is one)
/// against the variable-base mul(base, k).
void expect_table_matches_variable_base(const group& g,
                                        const group_element& base,
                                        const std::vector<scalar>& ks) {
  ASSERT_GE(ks.size(), 256u);
  std::vector<group_element> want;
  for (const auto& k : ks) want.push_back(g.mul(base, k));
  expect_same_elements(g, g.mul_batch(base, ks), want);
  for (std::size_t i = 0; i < ks.size(); i += 37) {
    EXPECT_EQ(g.encode(g.mul_batch(base, std::span{&ks[i], 1})[0]),
              g.encode(want[i]))
        << "index " << i;
  }
}

/// 300 scalars: the edge values 0, 1 and order - 1 first, then random ones.
[[nodiscard]] std::vector<scalar> table_scalars(const group& g,
                                                secure_rng& rng) {
  std::vector<scalar> ks{
      g.scalar_from_u64(0), g.scalar_from_u64(1),
      g.decode_scalar(from_hex("ffffffff00000000ffffffffffffffff"
                               "bce6faada7179e84f3b9cac2fc632550"))};
  while (ks.size() < 300) ks.push_back(g.random_scalar(rng));
  return ks;
}

TEST(P256FixedBaseTest, TablePathMatchesVariableBaseForEveryBase) {
  const auto g = make_group(group_backend::p256);
  deterministic_rng rng{1902};
  const std::vector<scalar> ks = table_scalars(*g, rng);
  // A random base, the generator, and the identity (which gets no table:
  // every product is the identity on the variable-base loop).
  expect_table_matches_variable_base(*g, g->random_element(rng), ks);
  expect_table_matches_variable_base(*g, g->generator(), ks);
  expect_table_matches_variable_base(*g, g->identity(), ks);
  for (const auto& p : g->mul_batch(g->identity(), ks)) {
    EXPECT_TRUE(g->is_identity(p));
  }
}

TEST(P256FixedBaseTest, MoreBasesThanTheCacheHoldsStayExact) {
  // The cache keeps 4 tables; 6 bases evict the first two, and coming back
  // to the first rebuilds its table.
  const auto g = make_group(group_backend::p256);
  deterministic_rng rng{1903};
  const std::vector<scalar> ks = table_scalars(*g, rng);
  std::vector<group_element> bases;
  for (int i = 0; i < 6; ++i) bases.push_back(g->random_element(rng));
  for (const auto& base : bases) expect_table_matches_variable_base(*g, base, ks);
  expect_table_matches_variable_base(*g, bases.front(), ks);
}

TEST(P256FixedBaseTest, ConcurrentFirstUseOfAFreshBaseIsExact) {
  // Pool workers reach a base with no table at once, each with a batch big
  // enough to build one.
  const auto g = make_group(group_backend::p256);
  deterministic_rng rng{1904};
  const group_element base = g->random_element(rng);
  std::vector<scalar> ks;
  for (int i = 0; i < 4 * 256; ++i) ks.push_back(g->random_scalar(rng));
  std::vector<group_element> want;
  for (const auto& k : ks) want.push_back(g->mul(base, k));

  std::vector<group_element> got(ks.size());
  util::thread_pool pool{3};
  pool.parallel_for(ks.size(), 256, [&](std::size_t begin, std::size_t end) {
    const auto part =
        g->mul_batch(base, std::span{ks}.subspan(begin, end - begin));
    std::copy(part.begin(), part.end(),
              got.begin() + static_cast<std::ptrdiff_t>(begin));
  });
  expect_same_elements(*g, got, want);
}

}  // namespace
}  // namespace tormet::crypto
