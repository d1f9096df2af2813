// Crypto-layer tests: hash vectors, deterministic DRBG, group law and
// ElGamal algebra over both backends (parameterized), secret sharing, and
// the rerandomizing shuffle.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/crypto/hmac.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/secure_rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/shuffle.h"
#include "src/util/bytes.h"

namespace tormet::crypto {
namespace {

TEST(Sha256Test, NistVectors) {
  // FIPS 180-2 test vectors.
  EXPECT_EQ(to_hex(sha256(std::string_view{""})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  sha256_hasher h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.finish(), sha256(std::string_view{"hello world"}));
  // The hasher resets after finish.
  h.update("abc");
  EXPECT_EQ(h.finish(), sha256(std::string_view{"abc"}));
}

TEST(Sha256Test, FramedUpdatePreventsAmbiguity) {
  sha256_hasher h1;
  h1.update_framed(as_bytes("ab"));
  h1.update_framed(as_bytes("c"));
  sha256_hasher h2;
  h2.update_framed(as_bytes("a"));
  h2.update_framed(as_bytes("bc"));
  EXPECT_NE(h1.finish(), h2.finish());
}

TEST(Sha256Test, Trunc64Deterministic) {
  EXPECT_EQ(sha256_trunc64(std::string_view{"x"}),
            sha256_trunc64(std::string_view{"x"}));
  EXPECT_NE(sha256_trunc64(std::string_view{"x"}),
            sha256_trunc64(std::string_view{"y"}));
}

TEST(HmacTest, Rfc4231Vector) {
  // RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
  const auto mac = hmac_sha256(as_bytes("Jefe"),
                               as_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(byte_view{mac.data(), mac.size()}),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(SecureRngTest, SystemRngProducesBytes) {
  system_rng rng;
  byte_buffer a(32, 0);
  byte_buffer b(32, 0);
  rng.fill(a);
  rng.fill(b);
  EXPECT_NE(a, b);  // 2^-256 failure probability
}

TEST(SecureRngTest, DeterministicReproducible) {
  deterministic_rng a{42};
  deterministic_rng b{42};
  byte_buffer x(100, 0);
  byte_buffer y(100, 0);
  a.fill(x);
  b.fill(y);
  EXPECT_EQ(x, y);
  // Continued output differs from restarting.
  a.fill(x);
  deterministic_rng c{42};
  c.fill(y);
  EXPECT_NE(x, y);
}

TEST(SecureRngTest, StreamRngIsTheSameAtEveryReadSize) {
  // Refills are 128 bytes first and 4 KiB after; reads of mixed sizes
  // cross both boundaries and must see one keystream.
  sha256_digest seed{};
  seed[0] = 0x5e;
  stream_rng whole{seed};
  std::vector<std::uint8_t> want(10'000);
  whole.fill(want);

  stream_rng pieces{seed};
  std::vector<std::uint8_t> got(want.size());
  const std::size_t sizes[] = {1, 7, 32, 64, 100, 127, 129, 4096, 3};
  for (std::size_t at = 0, i = 0; at < got.size(); ++i) {
    const std::size_t n = std::min(sizes[i % std::size(sizes)], got.size() - at);
    pieces.fill(std::span{got}.subspan(at, n));
    at += n;
  }
  EXPECT_EQ(got, want);
}

TEST(SecureRngTest, BelowUnbiasedSmallBound) {
  deterministic_rng rng{7};
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(5)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 400);
}

// ---------------------------------------------------------------------------
// Group + ElGamal over both backends.
// ---------------------------------------------------------------------------

class GroupTest : public ::testing::TestWithParam<group_backend> {
 protected:
  std::shared_ptr<const group> g_ = make_group(GetParam());
  deterministic_rng rng_{12345};
};

TEST_P(GroupTest, IdentityLaws) {
  const group_element id = g_->identity();
  EXPECT_TRUE(g_->is_identity(id));
  const group_element gen = g_->generator();
  EXPECT_FALSE(g_->is_identity(gen));
  EXPECT_TRUE(g_->equal(g_->add(gen, id), gen));
  EXPECT_TRUE(g_->is_identity(g_->add(gen, g_->negate(gen))));
}

TEST_P(GroupTest, ScalarMultiplicationConsistency) {
  const scalar k2 = g_->scalar_from_u64(2);
  const scalar k3 = g_->scalar_from_u64(3);
  const scalar k5 = g_->scalar_from_u64(5);
  const group_element gen = g_->generator();
  // 2G + 3G == 5G
  EXPECT_TRUE(g_->equal(g_->add(g_->mul(gen, k2), g_->mul(gen, k3)),
                        g_->mul(gen, k5)));
  // mul_generator matches mul(generator, .)
  EXPECT_TRUE(g_->equal(g_->mul_generator(k5), g_->mul(gen, k5)));
}

TEST_P(GroupTest, EncodeDecodeRoundTrip) {
  const group_element p = g_->random_element(rng_);
  const byte_buffer enc = g_->encode(p);
  EXPECT_TRUE(g_->equal(g_->decode(enc), p));
  // Identity also roundtrips (toy encodes 1; p256 uses the 1-byte infinity).
  const byte_buffer id_enc = g_->encode(g_->identity());
  EXPECT_TRUE(g_->is_identity(g_->decode(id_enc)));
}

TEST_P(GroupTest, ScalarEncodeDecodeRoundTrip) {
  const scalar k = g_->random_scalar(rng_);
  const byte_buffer enc = g_->encode_scalar(k);
  const scalar back = g_->decode_scalar(enc);
  EXPECT_TRUE(g_->equal(g_->mul_generator(k), g_->mul_generator(back)));
}

TEST_P(GroupTest, RandomScalarsNonZeroAndDistinct) {
  const scalar a = g_->random_scalar(rng_);
  const scalar b = g_->random_scalar(rng_);
  EXPECT_FALSE(g_->is_identity(g_->mul_generator(a)));
  EXPECT_FALSE(g_->equal(g_->mul_generator(a), g_->mul_generator(b)));
}

TEST_P(GroupTest, ElGamalRoundTrip) {
  const elgamal scheme{g_};
  const elgamal_keypair kp = scheme.generate_keypair(rng_);
  const group_element msg = g_->random_element(rng_);
  const elgamal_ciphertext ct = scheme.encrypt(kp.pub, msg, rng_);
  EXPECT_TRUE(g_->equal(scheme.decrypt(kp.secret, ct), msg));
}

TEST_P(GroupTest, ElGamalHomomorphism) {
  const elgamal scheme{g_};
  const elgamal_keypair kp = scheme.generate_keypair(rng_);
  const group_element m1 = g_->random_element(rng_);
  const group_element m2 = g_->random_element(rng_);
  const elgamal_ciphertext sum =
      scheme.add(scheme.encrypt(kp.pub, m1, rng_), scheme.encrypt(kp.pub, m2, rng_));
  EXPECT_TRUE(g_->equal(scheme.decrypt(kp.secret, sum), g_->add(m1, m2)));
}

TEST_P(GroupTest, ElGamalRerandomizePreservesPlaintext) {
  const elgamal scheme{g_};
  const elgamal_keypair kp = scheme.generate_keypair(rng_);
  const group_element msg = g_->random_element(rng_);
  const elgamal_ciphertext ct = scheme.encrypt(kp.pub, msg, rng_);
  const elgamal_ciphertext rr = scheme.rerandomize(kp.pub, ct, rng_);
  // Different ciphertext bytes, same plaintext.
  EXPECT_NE(scheme.encode(ct), scheme.encode(rr));
  EXPECT_TRUE(g_->equal(scheme.decrypt(kp.secret, rr), msg));
}

TEST_P(GroupTest, ElGamalDistributedDecryption) {
  const elgamal scheme{g_};
  // Three parties with key shares; joint pk = sum of pubs.
  const elgamal_keypair kp1 = scheme.generate_keypair(rng_);
  const elgamal_keypair kp2 = scheme.generate_keypair(rng_);
  const elgamal_keypair kp3 = scheme.generate_keypair(rng_);
  const std::vector<group_element> pubs{kp1.pub, kp2.pub, kp3.pub};
  const group_element joint = scheme.combine_public_keys(pubs);

  const group_element msg = g_->random_element(rng_);
  elgamal_ciphertext ct = scheme.encrypt(joint, msg, rng_);
  ct = scheme.strip_share(ct, kp1.secret);
  ct = scheme.strip_share(ct, kp2.secret);
  ct = scheme.strip_share(ct, kp3.secret);
  EXPECT_TRUE(g_->equal(ct.b, msg));
}

TEST_P(GroupTest, ElGamalZeroAndOnePlaintexts) {
  const elgamal scheme{g_};
  const elgamal_keypair kp = scheme.generate_keypair(rng_);
  const elgamal_ciphertext zero = scheme.encrypt_zero(kp.pub, rng_);
  EXPECT_TRUE(g_->is_identity(scheme.decrypt(kp.secret, zero)));
  const elgamal_ciphertext one = scheme.encrypt_one(kp.pub, rng_);
  EXPECT_FALSE(g_->is_identity(scheme.decrypt(kp.secret, one)));
}

TEST_P(GroupTest, ElGamalCiphertextCodec) {
  const elgamal scheme{g_};
  const elgamal_keypair kp = scheme.generate_keypair(rng_);
  const group_element msg = g_->random_element(rng_);
  const elgamal_ciphertext ct = scheme.encrypt(kp.pub, msg, rng_);
  const elgamal_ciphertext back = scheme.decode(scheme.encode(ct));
  EXPECT_TRUE(g_->equal(scheme.decrypt(kp.secret, back), msg));
}

TEST_P(GroupTest, ShuffleIsPermutationWithSamePlaintexts) {
  const batch_engine engine{g_};
  const elgamal& scheme = engine.scheme();
  const elgamal_keypair kp = scheme.generate_keypair(rng_);
  std::vector<elgamal_ciphertext> input;
  for (int i = 0; i < 20; ++i) {
    input.push_back(scheme.encrypt(kp.pub, g_->random_element(rng_), rng_));
  }
  const std::vector<elgamal_ciphertext> output =
      shuffle_and_rerandomize(engine, kp.pub, input, rng_);
  ASSERT_EQ(output.size(), input.size());

  // Decrypted multiset matches.
  std::multiset<std::string> in_plain;
  std::multiset<std::string> out_plain;
  for (std::size_t i = 0; i < input.size(); ++i) {
    in_plain.insert(to_hex(g_->encode(scheme.decrypt(kp.secret, input[i]))));
    out_plain.insert(to_hex(g_->encode(scheme.decrypt(kp.secret, output[i]))));
  }
  EXPECT_EQ(in_plain, out_plain);

  // Every output is rerandomized: none carries an input's bytes, so the
  // shuffle cannot be undone by matching ciphertexts.
  std::set<byte_buffer> in_bytes;
  for (const auto& ct : input) in_bytes.insert(scheme.encode(ct));
  for (const auto& ct : output) {
    EXPECT_EQ(in_bytes.count(scheme.encode(ct)), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, GroupTest,
                         ::testing::Values(group_backend::toy,
                                           group_backend::p256),
                         [](const auto& info) {
                           return info.param == group_backend::toy ? "toy"
                                                                   : "p256";
                         });

// ---------------------------------------------------------------------------
// Secret sharing.
// ---------------------------------------------------------------------------

TEST(SecretSharingTest, SharesRecombine) {
  deterministic_rng rng{5};
  for (const std::uint64_t value : {0ULL, 1ULL, 123456789ULL, ~0ULL}) {
    for (const std::size_t n : {1u, 2u, 3u, 16u}) {
      const auto shares = additive_shares(value, n, rng);
      ASSERT_EQ(shares.size(), n);
      EXPECT_EQ(combine_shares(shares), value);
    }
  }
}

TEST(SecretSharingTest, ProperSubsetsLookRandom) {
  // The first n-1 shares of value v and of value w are identically
  // distributed; sanity-check that sharing the same value twice gives
  // different shares (they are fresh randomness).
  deterministic_rng rng{6};
  const auto s1 = additive_shares(42, 3, rng);
  const auto s2 = additive_shares(42, 3, rng);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(combine_shares(s1), combine_shares(s2));
}

TEST(SecretSharingTest, SignedMapping) {
  EXPECT_EQ(to_signed_count(0), 0);
  EXPECT_EQ(to_signed_count(5), 5);
  EXPECT_EQ(to_signed_count(static_cast<std::uint64_t>(-7)), -7);
}

TEST(ShuffleTest, RandomPermutationIsBijection) {
  deterministic_rng rng{8};
  const auto perm = random_permutation(100, rng);
  std::vector<bool> seen(100, false);
  for (const auto i : perm) {
    ASSERT_LT(i, 100u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

}  // namespace
}  // namespace tormet::crypto
