// Zero-allocation guarantees for the batch crypto hot path. The test binary
// overrides global operator new/delete with a counting shim, then asserts
// that the toy-backend batch paths (encrypt, rerandomize, strip, wire
// decode, tally decode) perform a number of allocations that does NOT grow
// with the batch size: every per-element structure lives in a per-batch
// arena or in the scalar's inline small buffer. The toy backend routes all
// of its allocation through operator new (no OpenSSL mallocs), which is
// why the contract is asserted there; p256 shares the exact same arena
// code paths on our side of the OpenSSL boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/crypto/secure_rng.h"

namespace {

std::atomic<std::size_t> g_new_calls{0};

[[nodiscard]] void* counted_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tormet::crypto {
namespace {

constexpr std::size_t k_small = 512;
constexpr std::size_t k_large = 4096;

/// Allocation count of one call to `fn`, on this (single) thread.
template <typename Fn>
[[nodiscard]] std::size_t allocations_of(const Fn& fn) {
  const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
  fn();
  return g_new_calls.load(std::memory_order_relaxed) - before;
}

class AllocationTest : public ::testing::Test {
 protected:
  AllocationTest()
      : group_{make_toy_group()},
        // One shard per batch (shard_size == batch size), no pool: counts on
        // the calling thread cover the entire batch, and per-shard overhead
        // (one stream_rng, a handful of vectors) is identical for both
        // sizes, so equal counts mean zero allocations per element.
        engine_small_{group_, nullptr, k_small},
        engine_large_{group_, nullptr, k_large},
        rng_{99} {
    kp_ = engine_small_.scheme().generate_keypair(rng_);
    seed_ = batch_engine::derive_seed(rng_);
    // Warm up every path once: static comb tables, cached per-base combs,
    // thread_local scratch. After this, counts are deterministic.
    input_small_ = engine_small_.encrypt_zero_batch(kp_.pub, k_small, seed_);
    input_large_ = engine_large_.encrypt_zero_batch(kp_.pub, k_large, seed_);
    wire_small_ = engine_small_.encode_batch(input_small_);
    wire_large_ = engine_large_.encode_batch(input_large_);
    views_small_ = views_of(wire_small_);
    views_large_ = views_of(wire_large_);
    (void)engine_small_.rerandomize_batch(kp_.pub, input_small_, seed_);
    (void)engine_small_.strip_share_batch(input_small_, kp_.secret);
    (void)engine_small_.tally_decode_count(views_small_);
  }

  std::shared_ptr<const group> group_;
  batch_engine engine_small_;
  batch_engine engine_large_;
  deterministic_rng rng_;
  elgamal_keypair kp_;
  sha256_digest seed_{};
  std::vector<elgamal_ciphertext> input_small_, input_large_;
  std::vector<byte_buffer> wire_small_, wire_large_;
  std::vector<byte_view> views_small_, views_large_;  // into wire_*
};

TEST_F(AllocationTest, ScalarsAreInlineOnEveryBackend) {
  deterministic_rng rng{7};
  for (const auto backend : {group_backend::toy, group_backend::p256}) {
    const auto g = make_group(backend);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(g->random_scalar(rng).is_inline());
    }
    EXPECT_TRUE(g->scalar_from_u64(123456789).is_inline());
  }
}

TEST_F(AllocationTest, RandomScalarDrawsAreAllocationFree) {
  deterministic_rng rng{8};
  const std::size_t allocs = allocations_of([&] {
    for (int i = 0; i < 256; ++i) {
      const scalar k = group_->random_scalar(rng);
      ASSERT_TRUE(k.valid());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST_F(AllocationTest, EncryptBatchAllocationsDoNotScaleWithBatchSize) {
  const std::size_t small = allocations_of([&] {
    (void)engine_small_.encrypt_zero_batch(kp_.pub, k_small, seed_);
  });
  const std::size_t large = allocations_of([&] {
    (void)engine_large_.encrypt_zero_batch(kp_.pub, k_large, seed_);
  });
  EXPECT_EQ(large, small) << "per-element allocations on the encrypt path";
  // Sanity: the serial per-element loop allocates at least once per element
  // (each ciphertext's two handles), so the counter does detect scaling.
  deterministic_rng rng{11};
  const std::size_t serial = allocations_of([&] {
    for (std::size_t i = 0; i < k_small; ++i) {
      (void)engine_small_.scheme().encrypt_zero(kp_.pub, rng);
    }
  });
  EXPECT_GE(serial, k_small);
}

TEST_F(AllocationTest, RerandomizeBatchAllocationsDoNotScaleWithBatchSize) {
  const std::size_t small = allocations_of([&] {
    (void)engine_small_.rerandomize_batch(kp_.pub, input_small_, seed_);
  });
  const std::size_t large = allocations_of([&] {
    (void)engine_large_.rerandomize_batch(kp_.pub, input_large_, seed_);
  });
  EXPECT_EQ(large, small) << "per-element allocations on the rerandomize path";
}

TEST_F(AllocationTest, RerandomizeUnderTheIdentityDoesNotScaleWithBatchSize) {
  // The last CP of a PSC chain mixes under the identity, where mul_batch
  // answers without a table.
  const group_element identity = group_->identity();
  const std::size_t small = allocations_of([&] {
    (void)engine_small_.rerandomize_batch(identity, input_small_, seed_);
  });
  const std::size_t large = allocations_of([&] {
    (void)engine_large_.rerandomize_batch(identity, input_large_, seed_);
  });
  EXPECT_EQ(large, small) << "per-element allocations under the identity key";
}

TEST_F(AllocationTest, StripShareBatchAllocationsDoNotScaleWithBatchSize) {
  const std::size_t small = allocations_of([&] {
    (void)engine_small_.strip_share_batch(input_small_, kp_.secret);
  });
  const std::size_t large = allocations_of([&] {
    (void)engine_large_.strip_share_batch(input_large_, kp_.secret);
  });
  EXPECT_EQ(large, small) << "per-element allocations on the strip path";
}

TEST_F(AllocationTest, TallyDecodeCountIsAllocationFreePerElement) {
  const std::size_t small = allocations_of([&] {
    (void)engine_small_.tally_decode_count(views_small_);
  });
  const std::size_t large = allocations_of([&] {
    (void)engine_large_.tally_decode_count(views_large_);
  });
  EXPECT_EQ(large, small) << "per-element allocations on the tally decode path";
}

TEST_F(AllocationTest, WireDecodeBatchAllocatesOnlyTheOutputVectorAndArena) {
  // decode_batch must materialize n handles, but through the arena: the
  // allocation count may not scale with n beyond the flat per-batch set
  // (component vectors + one arena per component + the output vector).
  const std::size_t small = allocations_of([&] {
    (void)engine_small_.decode_batch(views_small_);
  });
  const std::size_t large = allocations_of([&] {
    (void)engine_large_.decode_batch(views_large_);
  });
  EXPECT_EQ(large, small) << "per-element allocations on the wire decode path";
}

}  // namespace
}  // namespace tormet::crypto
