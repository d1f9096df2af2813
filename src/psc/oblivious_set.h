// PSC's oblivious counter: a hash table of ElGamal-encrypted bits. Inserting
// an item *overwrites* its bin with a fresh encryption of a random non-
// identity element — no read, no plaintext bit stored — so a data collector
// holds nothing that reveals which items (client IPs, onion addresses,
// SLDs) it has seen (§5.1: "we do not store (even temporarily) IP
// addresses since PSC uses oblivious counters").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/util/bytes.h"

namespace tormet::psc {

/// One insert: the bin it overwrites and the seed its encryption randomness
/// is derived from.
struct seeded_insert {
  std::size_t bin = 0;
  std::uint64_t seed = 0;
};

class oblivious_set {
 public:
  /// All bins initialized to encryptions of zero under `joint_pub`, through
  /// `engine` (multi-threaded when the engine has a pool; `rng` supplies
  /// only the 32-byte batch seed). The engine must outlive this set —
  /// inserts run on it.
  oblivious_set(const crypto::batch_engine& engine,
                crypto::group_element joint_pub, std::size_t bins,
                crypto::secure_rng& rng);

  /// Bin index an item hashes to.
  [[nodiscard]] std::size_t bin_of(byte_view item) const;

  /// Marks the item present (idempotent by construction): a batch of one
  /// insert into its bin, seeded by one u64 of `rng`.
  void insert(byte_view item, crypto::secure_rng& rng);

  /// Applies `inserts` in order. Insert (bin, seed) overwrites its bin with
  /// encrypt_one under the ChaCha20 stream keyed by
  /// SHA256("tormet.psc.insert.v1" ‖ le64(seed)), so its ciphertext depends
  /// on (bin, seed) alone. A later insert into a bin overwrites an earlier
  /// one, so only each bin's last insert is computed, and the survivors run
  /// as one engine pass. The table bytes equal those of applying the
  /// inserts one at a time, however the caller splits them into batches.
  void insert_seeded(std::span<const seeded_insert> inserts);

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
  const crypto::batch_engine& engine_;
  crypto::group_element joint_pub_;
  std::vector<crypto::elgamal_ciphertext> slots_;
};

}  // namespace tormet::psc
