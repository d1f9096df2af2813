// PSC tally server (the paper's §3.1 extension): coordinates key setup,
// giving the DCs the joint key and each CP its onward key (the sum of the
// later CPs' shares); collects the DCs' encrypted tables, combines them
// homomorphically (per-bin ciphertext products — an encryption of identity
// iff no DC set the bin), starts the CP chain, whose single pass strips,
// noises and mixes, and counts non-identity plaintexts in the vector the
// last CP returns. The TS never handles any plaintext item.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/dp/action_bounds.h"
#include "src/net/transport.h"
#include "src/psc/messages.h"
#include "src/util/thread_pool.h"

namespace tormet::psc {

struct round_params {
  std::uint64_t bins = 4096;
  /// Unique-count sensitivity Δ (from the action bounds: e.g. 4 new IPs,
  /// 3 new onion addresses, 20 domains per protected day).
  double sensitivity = 1.0;
  dp::privacy_params privacy{};
  crypto::group_backend group = crypto::group_backend::p256;
  /// Binomial-mechanism analysis constant (see dp::binomial_noise_bits).
  double noise_constant = 8.0;
  bool noise_enabled = true;
};

class tally_server {
 public:
  tally_server(net::node_id self, net::transport& transport,
               std::vector<net::node_id> data_collectors,
               std::vector<net::node_id> computation_parties);

  void handle_message(const net::message& msg);

  /// Shares `pool` with the batch engine that runs the TS's bulk work (DC
  /// table decode + combine, final-vector tally decode). Call before
  /// begin_round; nullptr (the default) runs every batch inline. Protocol
  /// outputs are identical either way.
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool);

  /// Phase 1: configure CPs (they reply with key shares); once all shares
  /// arrive the TS configures the DCs with the joint key and each CP with
  /// its onward key.
  void begin_round(const round_params& params);
  [[nodiscard]] bool setup_complete() const;  // DCs configured

  /// Crash recovery: positions the round counter so the next begin_round
  /// runs as round `next_round` (1-based). Used by a restarted TS resuming
  /// its schedule after op-log replay, and by a durable TS retrying the
  /// same round after a peer crash (per-round RNG reseeding makes a re-run
  /// byte-identical to the interrupted attempt).
  void resume_at_round(std::uint32_t next_round);

  /// Phase 2 (after collection): gather DC tables, combine, and launch the
  /// mix chain. Runs to completion as messages flow.
  void request_reports();

  /// Dropout recovery: starts mixing with the DC tables received so far
  /// (the union simply excludes the dead DCs' observations).
  void force_mixing();

  [[nodiscard]] bool result_ready() const noexcept { return raw_count_.has_value(); }
  /// Decrypted non-identity count (occupied bins + noise ones). Use
  /// psc::estimate_cardinality / stats::psc_confidence_interval to invert.
  [[nodiscard]] std::uint64_t raw_count() const;
  [[nodiscard]] std::uint64_t total_noise_bits() const noexcept {
    return noise_bits_per_cp_ * cps_.size();
  }
  [[nodiscard]] const round_params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint32_t round_id() const noexcept { return round_id_; }
  /// DCs whose tables made it into the combination (dropout diagnostics).
  [[nodiscard]] const std::set<net::node_id>& reporting_dcs() const noexcept {
    return dc_reports_seen_;
  }
  /// The DCs this TS still drives (initial list minus exclusions).
  [[nodiscard]] const std::vector<net::node_id>& data_collectors()
      const noexcept {
    return dcs_;
  }
  /// Permanently drops a DC from the deployment (live-pipeline fault
  /// handling): it receives no further configures or report requests and no
  /// longer counts toward report completeness. At least one DC must remain.
  void exclude_dc(net::node_id id);
  /// Rejoin handshake: re-admits a previously excluded (or restarted) DC at
  /// a round boundary — it is configured and counted again from the next
  /// begin_round on. No-op if the DC is already a member.
  void readmit_dc(net::node_id id);

 private:
  void maybe_distribute_joint_key();
  void maybe_start_mixing();

  net::node_id self_;
  net::transport& transport_;
  std::vector<net::node_id> dcs_;
  std::vector<net::node_id> cps_;

  std::uint32_t round_id_ = 0;
  round_params params_;
  std::uint64_t noise_bits_per_cp_ = 0;
  std::shared_ptr<const crypto::group> group_;
  std::shared_ptr<util::thread_pool> pool_;
  /// All bulk ciphertext work (decode, combine, encode, tally decode) runs
  /// through the engine so large bin counts shard across the pool.
  std::unique_ptr<crypto::batch_engine> engine_;
  std::map<net::node_id, crypto::group_element> pk_shares_;
  bool dcs_configured_ = false;
  bool reports_requested_ = false;
  bool mixing_started_ = false;
  std::set<net::node_id> dc_reports_seen_;
  std::vector<crypto::elgamal_ciphertext> combined_;
  std::optional<std::uint64_t> raw_count_;
};

}  // namespace tormet::psc
