// PSC's oblivious counter: a hash table of ElGamal-encrypted bits. Inserting
// an item *overwrites* its bin with a fresh encryption of a random non-
// identity element — no read, no plaintext bit stored — so a data collector
// holds nothing that reveals which items (client IPs, onion addresses,
// SLDs) it has seen (§5.1: "we do not store (even temporarily) IP
// addresses since PSC uses oblivious counters").
#pragma once

#include <cstdint>
#include <vector>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/util/bytes.h"

namespace tormet::psc {

class oblivious_set {
 public:
  /// All bins initialized to encryptions of zero under `joint_pub`, through
  /// `engine` (multi-threaded when the engine has a pool; `rng` supplies
  /// only the 32-byte batch seed). The engine must outlive this set —
  /// inserts use its elgamal instance.
  oblivious_set(const crypto::batch_engine& engine,
                crypto::group_element joint_pub, std::size_t bins,
                crypto::secure_rng& rng);

  /// Bin index an item hashes to.
  [[nodiscard]] std::size_t bin_of(byte_view item) const;

  /// Marks the item present (idempotent by construction).
  void insert(byte_view item, crypto::secure_rng& rng);

  /// Inserts into a specific bin using encryption randomness derived from
  /// `seed` alone (domain-separated ChaCha20 stream). Because the
  /// ciphertext depends only on (bin, seed), sharded ingest can pre-draw
  /// one seed per insert in event order and then execute the inserts in
  /// any per-bin-order-preserving schedule: the last insert into a bin
  /// wins, so the final table bytes are independent of the shard count.
  void insert_seeded_bin(std::size_t bin, std::uint64_t seed);

  [[nodiscard]] std::size_t bins() const noexcept { return slots_.size(); }
  [[nodiscard]] const std::vector<crypto::elgamal_ciphertext>& slots()
      const noexcept {
    return slots_;
  }
  /// Moves the encrypted table out (for the report); the set is empty after.
  [[nodiscard]] std::vector<crypto::elgamal_ciphertext> take_slots() noexcept {
    return std::move(slots_);
  }

 private:
  const crypto::elgamal& scheme_;
  crypto::group_element joint_pub_;
  std::vector<crypto::elgamal_ciphertext> slots_;
};

}  // namespace tormet::psc
