#include "src/privcount/tally_server.h"

#include <algorithm>
#include <cmath>

#include "src/crypto/secret_sharing.h"
#include "src/dp/allocation.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::privcount {

tally_server::tally_server(net::node_id self, net::transport& transport,
                           std::vector<net::node_id> data_collectors,
                           std::vector<net::node_id> share_keepers)
    : self_{self}, transport_{transport}, dcs_{std::move(data_collectors)},
      sks_{std::move(share_keepers)} {
  expects(!dcs_.empty(), "need at least one data collector");
  expects(!sks_.empty(), "need at least one share keeper");
}

void tally_server::begin_round(const std::vector<counter_spec>& specs,
                               const dp::privacy_params& params) {
  expects(!specs.empty(), "round needs at least one counter");
  std::set<std::string> names;
  for (const auto& s : specs) names.insert(s.name);
  expects(names.size() == specs.size(), "round counter names must be distinct");
  ++round_id_;
  counter_names_.clear();
  sigmas_.clear();
  dcs_ready_.clear();
  dc_reports_seen_.clear();
  sk_reports_seen_.clear();
  aggregate_.assign(specs.size(), 0);
  round_dc_count_ = dcs_.size();
  reveal_requested_ = false;

  std::vector<dp::counter_request> requests;
  requests.reserve(specs.size());
  for (const auto& s : specs) {
    requests.push_back({s.name, s.sensitivity, s.expected_value});
  }
  const std::vector<dp::counter_allocation> alloc =
      dp::allocate_budget(params, requests);
  for (const auto& a : alloc) {
    counter_names_.push_back(a.name);
    sigmas_.push_back(noise_enabled_ ? a.sigma : 0.0);
  }

  configure_msg cfg;
  cfg.round_id = round_id_;
  cfg.counter_names = counter_names_;
  cfg.sigmas = sigmas_;
  cfg.noise_weight = 1.0 / static_cast<double>(dcs_.size());
  cfg.share_keepers = sks_;
  for (const auto dc : dcs_) {
    transport_.send(encode_configure(self_, dc, cfg));
  }
  configure_msg sk_cfg = cfg;
  sk_cfg.noise_weight = 0.0;  // SKs hold no noise
  for (const auto sk : sks_) {
    transport_.send(encode_configure(self_, sk, sk_cfg));
  }
}

bool tally_server::all_dcs_ready() const {
  return dcs_ready_.size() == dcs_.size();
}

void tally_server::resume_at_round(std::uint32_t next_round) {
  expects(next_round >= 1, "rounds are 1-based");
  round_id_ = next_round - 1;
}

void tally_server::start_collection() {
  for (const auto dc : dcs_) {
    transport_.send(encode_simple(self_, dc, msg_type::start_collection, round_id_));
  }
}

void tally_server::stop_collection() {
  for (const auto dc : dcs_) {
    transport_.send(encode_simple(self_, dc, msg_type::stop_collection, round_id_));
  }
}

void tally_server::request_reveal() {
  reveal_requested_ = true;
  sk_reveal_msg m;
  m.round_id = round_id_;
  m.reporting_dcs.assign(dc_reports_seen_.begin(), dc_reports_seen_.end());
  for (const auto sk : sks_) {
    transport_.send(encode_sk_reveal(self_, sk, m));
  }
}

void tally_server::handle_message(const net::message& msg) {
  switch (static_cast<msg_type>(msg.type)) {
    case msg_type::dc_ready:
      if (decode_round_id(msg) == round_id_ && is_member(msg.from)) {
        dcs_ready_.insert(msg.from);
      }
      return;
    case msg_type::dc_report: {
      const dc_report_msg m = decode_dc_report(msg);
      if (m.round_id != round_id_) return;
      if (!is_member(msg.from)) {
        // Excluded (or foreign) DCs cannot contribute: their report would
        // re-admit dropped data and satisfy the survivors' completeness
        // check, and the SKs' reveal would not cancel its blinds.
        log_line{log_level::warn}
            << "TS: dropping report from non-member DC " << msg.from;
        return;
      }
      if (reveal_requested_) {
        // A straggler's report after the reveal was requested: the SKs'
        // blinding sums already name the reporting set, so folding this in
        // would leave uncancelled blinds in the aggregate.
        log_line{log_level::warn}
            << "TS: DC " << msg.from
            << " report arrived after the reveal request; dropping";
        return;
      }
      if (m.values.size() != counter_names_.size()) {
        log_line{log_level::warn}
            << "TS: DC " << msg.from << " report has wrong arity; dropping";
        return;
      }
      if (!dc_reports_seen_.insert(msg.from).second) return;  // duplicate
      combine_report(m.values);
      return;
    }
    case msg_type::sk_report: {
      const sk_report_msg m = decode_sk_report(msg);
      if (m.round_id != round_id_) return;
      if (m.sums.size() != counter_names_.size()) {
        log_line{log_level::warn}
            << "TS: SK " << msg.from << " report has wrong arity; dropping";
        return;
      }
      if (!sk_reports_seen_.insert(msg.from).second) return;  // duplicate
      combine_report(m.sums);
      return;
    }
    default:
      log_line{log_level::warn} << "TS: unexpected message type " << msg.type;
  }
}

bool tally_server::is_member(net::node_id dc) const {
  return std::find(dcs_.begin(), dcs_.end(), dc) != dcs_.end();
}

void tally_server::combine_report(std::span<const std::uint64_t> values) {
  expects(values.size() == aggregate_.size(), "report arity mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) aggregate_[i] += values[i];
}

void tally_server::exclude_dc(net::node_id id) {
  const auto it = std::find(dcs_.begin(), dcs_.end(), id);
  if (it == dcs_.end()) return;
  expects(dcs_.size() > 1, "cannot exclude the last data collector");
  dcs_.erase(it);
  dcs_ready_.erase(id);
  log_line{log_level::warn} << "TS: excluding DC " << id
                            << " from the deployment";
}

void tally_server::readmit_dc(net::node_id id) {
  if (is_member(id)) return;
  dcs_.push_back(id);
  log_line{log_level::info} << "TS: re-admitting DC " << id
                            << " from the next round";
}

bool tally_server::results_ready() const {
  return !counter_names_.empty() && sk_reports_seen_.size() == sks_.size();
}

std::vector<counter_result> tally_server::results() const {
  expects(results_ready(), "results requested before all SK reports arrived");
  std::vector<counter_result> out;
  out.reserve(counter_names_.size());
  // With d of n configured DCs reporting, realized noise variance is
  // (d/n)·sigma²; the published sigma reflects that so CIs stay honest
  // under dropout (n is the round's configured count — exclusions during
  // the round do not shrink it).
  const double noise_fraction = static_cast<double>(dc_reports_seen_.size()) /
                                static_cast<double>(round_dc_count_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    counter_result r;
    r.name = counter_names_[i];
    r.value = crypto::to_signed_count(aggregate_[i]);
    r.sigma = sigmas_[i] * std::sqrt(noise_fraction);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace tormet::privcount
