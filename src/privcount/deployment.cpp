#include "src/privcount/deployment.h"

#include "src/util/check.h"

namespace tormet::privcount {

deployment::deployment(net::transport& transport, const deployment_config& config)
    : transport_{transport}, config_{config} {
  expects(!config_.measured_relays.empty(), "deployment needs measured relays");
  expects(config_.num_share_keepers >= 1, "deployment needs a share keeper");

  const net::node_id ts_id = 0;
  std::vector<net::node_id> sk_ids;
  for (std::size_t i = 0; i < config_.num_share_keepers; ++i) {
    sk_ids.push_back(static_cast<net::node_id>(1 + i));
  }
  std::vector<net::node_id> dc_ids;
  for (std::size_t i = 0; i < config_.measured_relays.size(); ++i) {
    dc_ids.push_back(static_cast<net::node_id>(1 + config_.num_share_keepers + i));
  }

  ts_ = std::make_unique<tally_server>(ts_id, transport_, dc_ids, sk_ids);
  ts_->set_noise_enabled(config_.noise_enabled);
  transport_.register_node(ts_id,
                           [this](const net::message& m) { ts_->handle_message(m); });

  for (const auto sk_id : sk_ids) {
    auto sk = std::make_unique<share_keeper>(sk_id, ts_id, transport_);
    share_keeper* raw = sk.get();
    transport_.register_node(sk_id,
                             [raw](const net::message& m) { raw->handle_message(m); });
    sks_.push_back(std::move(sk));
  }

  for (std::size_t i = 0; i < config_.measured_relays.size(); ++i) {
    // Per-node stream: deterministic in (seed, node id) only, so the same
    // seed reproduces identical noise/blinding in a distributed round.
    // run_round reseeds per (node, round) at each boundary.
    rng_node_ids_.push_back(dc_ids[i]);
    node_rngs_.push_back(std::make_unique<crypto::deterministic_rng>(
        crypto::make_node_rng(config_.rng_seed, dc_ids[i])));
    auto dc = std::make_unique<data_collector>(dc_ids[i], ts_id, transport_,
                                               *node_rngs_.back());
    data_collector* raw = dc.get();
    transport_.register_node(dc_ids[i],
                             [raw](const net::message& m) { raw->handle_message(m); });
    dc_by_relay_[config_.measured_relays[i]] = raw;
    measured_set_.insert(config_.measured_relays[i]);
    dcs_.push_back(std::move(dc));
  }
}

void deployment::add_instrument(const data_collector::instrument& ins) {
  for (const auto& dc : dcs_) dc->add_instrument(ins);
}

void deployment::attach(tor::network& net) {
  net.set_observed_relays(measured_set_);
  net.set_event_sink([this](const tor::event& ev) {
    const auto it = dc_by_relay_.find(ev.observer);
    if (it != dc_by_relay_.end()) it->second->observe(ev);
  });
}

std::vector<counter_result> deployment::run_round(
    const std::vector<counter_spec>& specs,
    const std::function<void()>& workload) {
  // Reseed each DC's stream for the upcoming round id, mirroring
  // cli::node_runner in a distributed round (byte-identity contract).
  const std::uint32_t next_round = ts_->round_id() + 1;
  for (std::size_t i = 0; i < node_rngs_.size(); ++i) {
    *node_rngs_[i] =
        crypto::make_node_round_rng(config_.rng_seed, rng_node_ids_[i], next_round);
  }
  ts_->begin_round(specs, config_.privacy);
  transport_.run_until_quiescent();
  expects(ts_->all_dcs_ready(), "not all data collectors became ready");

  ts_->start_collection();
  transport_.run_until_quiescent();

  workload();

  ts_->stop_collection();
  transport_.run_until_quiescent();
  ts_->request_reveal();
  transport_.run_until_quiescent();
  ensures(ts_->results_ready(), "share keepers did not all report");
  return ts_->results();
}

}  // namespace tormet::privcount
