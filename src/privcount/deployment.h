// Convenience wrapper assembling a full PrivCount deployment (1 TS, k SKs,
// n DCs) over a transport, wiring DCs to the relays of a tor::network, and
// running measurement rounds end to end. This is the object the paper's
// §3.1 deployment corresponds to (1 TS, 3 SKs, 16 DCs).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/crypto/secure_rng.h"
#include "src/net/transport.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/share_keeper.h"
#include "src/privcount/tally_server.h"
#include "src/tor/network.h"

namespace tormet::privcount {

struct deployment_config {
  std::size_t num_share_keepers = 3;
  /// The measurement relays; one DC runs beside each.
  std::vector<tor::relay_id> measured_relays;
  dp::privacy_params privacy{};
  bool noise_enabled = true;
  /// Deployment seed. Each DC draws from its own stream derived as
  /// crypto::derive_node_seed(rng_seed, node_id), so noise/blinding are
  /// identical in-process and across a distributed multi-process round.
  std::uint64_t rng_seed = 2718;
};

class deployment {
 public:
  /// Builds all nodes and registers them with `transport`. Node ids are
  /// assigned: TS=0, SKs=1..k, DCs=k+1..k+n (in measured_relays order).
  deployment(net::transport& transport, const deployment_config& config);

  /// Installs an instrument on every DC (all of them share the one object).
  void add_instrument(const data_collector::instrument& ins);

  /// Hooks the DCs into `net`: sets its observed-relay set and event sink
  /// (events route to the DC of the observing relay).
  void attach(tor::network& net);

  /// Runs one full round: configure -> collect (caller generates traffic in
  /// `workload`) -> report -> aggregate. Returns the noisy counters.
  std::vector<counter_result> run_round(
      const std::vector<counter_spec>& specs,
      const std::function<void()>& workload);

  [[nodiscard]] tally_server& ts() noexcept { return *ts_; }
  /// Direct DC access (index follows measured_relays order) for workloads
  /// that feed events without going through a tor::network — e.g. the
  /// orchestrator's in-process reference round replaying per-DC traces.
  [[nodiscard]] data_collector& dc_at(std::size_t i) { return *dcs_.at(i); }
  [[nodiscard]] const std::set<tor::relay_id>& measured_relays() const noexcept {
    return measured_set_;
  }

 private:
  net::transport& transport_;
  deployment_config config_;
  /// One RNG per DC node, seeded via crypto::derive_node_seed at
  /// construction and crypto::derive_node_round_seed at round boundaries.
  std::vector<std::unique_ptr<crypto::deterministic_rng>> node_rngs_;
  std::vector<net::node_id> rng_node_ids_;  // parallel to node_rngs_
  std::unique_ptr<tally_server> ts_;
  std::vector<std::unique_ptr<share_keeper>> sks_;
  std::vector<std::unique_ptr<data_collector>> dcs_;
  std::map<tor::relay_id, data_collector*> dc_by_relay_;
  std::set<tor::relay_id> measured_set_;
};

}  // namespace tormet::privcount
