#include "src/psc/oblivious_set.h"

#include "src/crypto/secure_rng.h"
#include "src/crypto/sha256.h"
#include "src/util/check.h"

namespace tormet::psc {

namespace {

/// The stream key of the insert seeded by `seed`.
[[nodiscard]] crypto::sha256_digest insert_stream_key(std::uint64_t seed) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  crypto::sha256_hasher h;
  h.update("tormet.psc.insert.v1");
  h.update(byte_view{le, sizeof le});
  return h.finish();
}

}  // namespace

oblivious_set::oblivious_set(const crypto::batch_engine& engine,
                             crypto::group_element joint_pub, std::size_t bins,
                             crypto::secure_rng& rng)
    : engine_{engine}, joint_pub_{std::move(joint_pub)} {
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
  const seeded_insert one{bin_of(item), rng.next_u64()};
  insert_seeded(std::span{&one, 1});
}

void oblivious_set::insert_seeded(std::span<const seeded_insert> inserts) {
  expects(!slots_.empty(), "set has been taken");
  // Walk back from the last insert: the first one seen per bin survives.
  std::vector<std::uint8_t> taken(slots_.size());
  std::vector<std::size_t> bins;
  std::vector<crypto::sha256_digest> keys;
  for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
    expects(it->bin < slots_.size(), "bin index out of range");
    if (taken[it->bin] != 0) continue;
    taken[it->bin] = 1;
    bins.push_back(it->bin);
    keys.push_back(insert_stream_key(it->seed));
  }
  std::vector<crypto::elgamal_ciphertext> cts =
      engine_.encrypt_one_batch(joint_pub_, keys);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    slots_[bins[i]] = std::move(cts[i]);
  }
}

}  // namespace tormet::psc
