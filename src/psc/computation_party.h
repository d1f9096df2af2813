// PSC computation party (CP): holds one share of the joint ElGamal key and
// makes one pass over the round's vector. CP i of m receives it encrypted
// under K_i, the sum of the key shares of CPs i..m. It strips its own
// share, which leaves the vector under its onward key K_{i+1}; appends its
// binomial noise bits encrypted under K_{i+1}; shuffles and rerandomizes
// under K_{i+1}; and sends the result on. The last CP's onward key is the
// identity, so the vector it sends the TS holds plaintexts. The union
// cardinality stays private as long as one CP is honest: its shuffle
// breaks bin/DC linkability and its noise bits keep the count
// differentially private.
//
// The bulk ciphertext work (strip, noise encryption, rerandomization) runs
// through a crypto::batch_engine; attach a shared thread pool with
// set_thread_pool to spread it across workers. Results are deterministic in
// the session RNG regardless of the worker count.
#pragma once

#include <memory>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/secure_rng.h"
#include "src/crypto/shuffle.h"
#include "src/net/transport.h"
#include "src/psc/messages.h"
#include "src/util/thread_pool.h"

namespace tormet::psc {

class computation_party {
 public:
  computation_party(net::node_id self, net::node_id tally_server,
                    net::transport& transport, crypto::secure_rng& rng);

  /// Shares `pool` for batch crypto (takes effect at the next configure).
  /// Null reverts to inline execution.
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool);

  void handle_message(const net::message& msg);

  [[nodiscard]] net::node_id id() const noexcept { return self_; }

 private:
  void on_configure(const cp_configure_msg& m);
  void on_mix(const net::message& msg);
  [[nodiscard]] net::node_id next_in_chain() const;

  net::node_id self_;
  net::node_id tally_server_;
  net::transport& transport_;
  crypto::secure_rng& rng_;
  std::shared_ptr<util::thread_pool> pool_;

  std::uint32_t round_id_ = 0;
  std::uint64_t noise_bits_ = 0;
  std::vector<net::node_id> cp_chain_;
  std::shared_ptr<const crypto::group> group_;
  std::unique_ptr<crypto::batch_engine> engine_;  // owns the round's elgamal
  crypto::elgamal_keypair keypair_;
  // K_{i+1}: the sum of the later CPs' shares, set by the TS's
  // dc_configure.
  crypto::group_element onward_pk_;
  // Once-per-round latch: a retried round attempt can deliver a duplicate
  // (byte-identical) mix pass; processing it twice would consume the
  // session RNG again and change every downstream byte.
  bool mixed_ = false;
};

}  // namespace tormet::psc
