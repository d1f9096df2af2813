#include "src/psc/oblivious_set.h"

#include "src/crypto/secure_rng.h"
#include "src/crypto/sha256.h"
#include "src/util/check.h"

namespace tormet::psc {

oblivious_set::oblivious_set(const crypto::batch_engine& engine,
                             crypto::group_element joint_pub, std::size_t bins,
                             crypto::secure_rng& rng)
    : scheme_{engine.scheme()}, joint_pub_{std::move(joint_pub)} {
  expects(bins >= 2, "oblivious set needs at least two bins");
  slots_ = engine.encrypt_zero_batch(joint_pub_, bins,
                                     crypto::batch_engine::derive_seed(rng));
}

std::size_t oblivious_set::bin_of(byte_view item) const {
  crypto::sha256_hasher h;
  h.update("tormet.psc.item.v1");
  h.update_framed(item);
  const crypto::sha256_digest d = h.finish();
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | d[static_cast<std::size_t>(i)];
  return static_cast<std::size_t>(x % slots_.size());
}

void oblivious_set::insert(byte_view item, crypto::secure_rng& rng) {
  expects(!slots_.empty(), "set has been taken");
  // Route through the seeded path so per-item inserts and a sharded
  // batched ingest of the same stream produce byte-identical tables (both
  // consume exactly one u64 of `rng` per insert).
  insert_seeded_bin(bin_of(item), rng.next_u64());
}

void oblivious_set::insert_seeded_bin(std::size_t bin, std::uint64_t seed) {
  expects(!slots_.empty(), "set has been taken");
  expects(bin < slots_.size(), "bin index out of range");
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  crypto::sha256_hasher h;
  h.update("tormet.psc.insert.v1");
  h.update(byte_view{le, sizeof le});
  crypto::stream_rng r{h.finish()};
  slots_[bin] = scheme_.encrypt_one(joint_pub_, r);
}

}  // namespace tormet::psc
