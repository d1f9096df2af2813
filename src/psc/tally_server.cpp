#include "src/psc/tally_server.h"

#include <algorithm>
#include <utility>

#include "src/dp/noise.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::psc {

tally_server::tally_server(net::node_id self, net::transport& transport,
                           std::vector<net::node_id> data_collectors,
                           std::vector<net::node_id> computation_parties)
    : self_{self}, transport_{transport}, dcs_{std::move(data_collectors)},
      cps_{std::move(computation_parties)} {
  expects(!dcs_.empty(), "need at least one data collector");
  expects(!cps_.empty(), "need at least one computation party");
}

void tally_server::set_thread_pool(std::shared_ptr<util::thread_pool> pool) {
  pool_ = std::move(pool);
}

void tally_server::begin_round(const round_params& params) {
  ++round_id_;
  params_ = params;
  group_ = crypto::make_group(params_.group);
  engine_ = std::make_unique<crypto::batch_engine>(group_, pool_);
  pk_shares_.clear();
  dcs_configured_ = false;
  reports_requested_ = false;
  mixing_started_ = false;
  dc_reports_seen_.clear();
  combined_.clear();
  raw_count_.reset();

  noise_bits_per_cp_ =
      params_.noise_enabled
          ? dp::binomial_noise_bits(params_.sensitivity, params_.privacy.epsilon,
                                    params_.privacy.delta, params_.noise_constant)
          : 0;

  cp_configure_msg cfg;
  cfg.round_id = round_id_;
  cfg.bins = params_.bins;
  cfg.noise_bits = noise_bits_per_cp_;
  cfg.group = static_cast<std::uint8_t>(params_.group);
  cfg.cp_chain = cps_;
  for (const auto cp : cps_) {
    transport_.send(encode_cp_configure(self_, cp, cfg));
  }
}

void tally_server::maybe_distribute_joint_key() {
  if (pk_shares_.size() != cps_.size() || dcs_configured_) return;
  // Walking the chain backwards, each CP's onward key is the sum of the
  // shares of the CPs after it (the identity for the last CP), and the sum
  // of every share is the joint key the DCs encrypt under.
  std::vector<byte_buffer> onward(cps_.size());
  crypto::group_element key = group_->identity();
  for (std::size_t i = cps_.size(); i-- > 0;) {
    onward[i] = group_->encode(key);
    key = group_->add(key, pk_shares_.at(cps_[i]));
  }

  dc_configure_msg cfg;
  cfg.round_id = round_id_;
  cfg.bins = params_.bins;
  cfg.group = static_cast<std::uint8_t>(params_.group);
  cfg.joint_pk = group_->encode(key);
  for (const auto dc : dcs_) {
    transport_.send(encode_dc_configure(self_, dc, cfg));
  }
  for (std::size_t i = 0; i < cps_.size(); ++i) {
    cfg.joint_pk = std::move(onward[i]);
    transport_.send(encode_dc_configure(self_, cps_[i], cfg));
  }
  dcs_configured_ = true;
}

bool tally_server::setup_complete() const { return dcs_configured_; }

void tally_server::resume_at_round(std::uint32_t next_round) {
  expects(next_round >= 1, "rounds are 1-based");
  round_id_ = next_round - 1;
}

void tally_server::request_reports() {
  expects(dcs_configured_, "round not configured");
  reports_requested_ = true;
  for (const auto dc : dcs_) {
    transport_.send(encode_report_request(self_, dc, round_id_));
  }
  // A TS retrying a round may already hold every (re-sent, byte-identical)
  // DC table by the time it asks for reports — start mixing immediately
  // instead of waiting for arrivals that already happened.
  maybe_start_mixing();
}

void tally_server::maybe_start_mixing() {
  if (mixing_started_ || !reports_requested_) return;
  if (dc_reports_seen_.size() != dcs_.size()) return;
  force_mixing();
}

void tally_server::force_mixing() {
  if (mixing_started_) return;
  expects(!combined_.empty(), "no DC tables received");
  mixing_started_ = true;
  // The combined table leaves as it is encoded; the TS keeps no copy.
  const std::vector<byte_buffer> encoded =
      engine_->encode_batch(std::exchange(combined_, {}));
  transport_.send(encode_vector(self_, cps_.front(), msg_type::mix_pass,
                                {round_id_, views_of(encoded)}));
}

void tally_server::handle_message(const net::message& msg) {
  switch (static_cast<msg_type>(msg.type)) {
    case msg_type::pk_share: {
      const pk_share_msg m = decode_pk_share(msg);
      if (m.round_id != round_id_) return;
      if (std::find(cps_.begin(), cps_.end(), msg.from) == cps_.end()) return;
      pk_shares_[msg.from] = group_->decode(m.pk);
      maybe_distribute_joint_key();
      return;
    }
    case msg_type::dc_vector: {
      const vector_msg m = decode_vector(msg);
      if (m.round_id != round_id_) return;
      if (std::find(dcs_.begin(), dcs_.end(), msg.from) == dcs_.end()) {
        // A DC excluded from the deployment (or never part of it) cannot
        // contribute: counting its table would both re-admit dropped data
        // and let its arrival satisfy the completeness check meant for the
        // survivors.
        log_line{log_level::warn}
            << "PSC TS: dropping table from non-member DC " << msg.from;
        return;
      }
      if (mixing_started_) {
        // A straggler's table arriving after the mix launched (the TS
        // proceeded without it under the live pipeline's grace): combining
        // now would corrupt the in-flight round.
        log_line{log_level::warn}
            << "PSC TS: DC " << msg.from
            << " table arrived after mixing started; dropping";
        return;
      }
      if (m.ciphertexts.size() != params_.bins) {
        log_line{log_level::warn}
            << "PSC TS: DC " << msg.from << " table has wrong size; dropping";
        return;
      }
      if (!dc_reports_seen_.insert(msg.from).second) return;
      std::vector<crypto::elgamal_ciphertext> cts =
          engine_->decode_batch(m.ciphertexts);
      if (combined_.empty()) {
        combined_ = std::move(cts);
      } else {
        combined_ = engine_->add_batch(combined_, cts);
      }
      maybe_start_mixing();
      return;
    }
    case msg_type::final_vector: {
      const vector_msg m = decode_vector(msg);
      if (m.round_id != round_id_) return;
      // The last CP mixed under the identity, so b holds the plaintext: the
      // batch tally decode parses only the b components and counts
      // non-identity bins, sharded across the pool at large bin counts.
      raw_count_ = engine_->tally_decode_count(m.ciphertexts);
      return;
    }
    default:
      log_line{log_level::warn} << "PSC TS: unexpected message type " << msg.type;
  }
}

void tally_server::exclude_dc(net::node_id id) {
  const auto it = std::find(dcs_.begin(), dcs_.end(), id);
  if (it == dcs_.end()) return;
  expects(dcs_.size() > 1, "cannot exclude the last data collector");
  dcs_.erase(it);
  log_line{log_level::warn} << "PSC TS: excluding DC " << id
                            << " from the deployment";
}

void tally_server::readmit_dc(net::node_id id) {
  if (std::find(dcs_.begin(), dcs_.end(), id) != dcs_.end()) return;
  dcs_.push_back(id);
  log_line{log_level::info} << "PSC TS: re-admitting DC " << id
                            << " from the next round";
}

std::uint64_t tally_server::raw_count() const {
  expects(raw_count_.has_value(), "result not ready");
  return *raw_count_;
}

}  // namespace tormet::psc
