// Convenience wrapper assembling a full PSC deployment (1 TS, m CPs, n DCs)
// over a transport — the paper's §3.1 deployment is 1 TS, 3 CPs, 16 DCs —
// wiring DC item extraction to a tor::network and running unique-count
// rounds end to end.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/crypto/secure_rng.h"
#include "src/net/transport.h"
#include "src/psc/computation_party.h"
#include "src/psc/data_collector.h"
#include "src/psc/estimator.h"
#include "src/psc/tally_server.h"
#include "src/tor/network.h"
#include "src/util/thread_pool.h"

namespace tormet::psc {

struct deployment_config {
  std::size_t num_computation_parties = 3;
  std::vector<tor::relay_id> measured_relays;
  round_params round{};
  /// Deployment seed. Every node draws from its own deterministic stream
  /// derived as crypto::derive_node_seed(rng_seed, node_id), so protocol
  /// outputs do not depend on how message delivery interleaves across
  /// nodes — an in-process round and a distributed multi-process round
  /// with the same seed produce identical tallies.
  std::uint64_t rng_seed = 3141;
  /// Workers in the crypto thread pool every node shares. The default
  /// fills the host (util::host_workers()); 0 runs every batch inline.
  /// Protocol outputs are identical for any value — batch RNG streams are
  /// seeded per shard, never per worker.
  std::size_t worker_threads = util::host_workers();
};

/// Raw protocol outcome of one PSC round plus its point estimate.
struct round_outcome {
  std::uint64_t raw_count = 0;
  std::uint64_t bins = 0;
  std::uint64_t total_noise_bits = 0;
  cardinality_estimate estimate{};
};

class deployment {
 public:
  /// Node ids: TS=0, CPs=1..m, DCs=m+1..m+n (in measured_relays order).
  deployment(net::transport& transport, const deployment_config& config);

  /// Installs the item extractor on every DC.
  void set_extractor(data_collector::extractor fn);

  /// Hooks the DCs into `net` (observed relays + event routing).
  void attach(tor::network& net);

  /// Runs one full round: key setup -> collect (caller generates traffic in
  /// `workload`) -> combine -> one strip-and-mix pass per CP -> estimate.
  round_outcome run_round(const std::function<void()>& workload);

  [[nodiscard]] tally_server& ts() noexcept { return *ts_; }
  /// Direct DC access (index follows measured_relays order) for synthetic
  /// workloads that insert items without going through a tor::network —
  /// e.g. the orchestrator's in-process reference round.
  [[nodiscard]] data_collector& dc_at(std::size_t i) { return *dcs_.at(i); }
  [[nodiscard]] const std::set<tor::relay_id>& measured_relays() const noexcept {
    return measured_set_;
  }

 private:
  net::transport& transport_;
  deployment_config config_;
  /// One RNG per node, seeded via derive_node_seed at construction and
  /// reseeded via derive_node_round_seed at each round boundary.
  std::vector<std::unique_ptr<crypto::deterministic_rng>> node_rngs_;
  std::vector<net::node_id> rng_node_ids_;  // parallel to node_rngs_
  std::shared_ptr<util::thread_pool> pool_;
  std::unique_ptr<tally_server> ts_;
  std::vector<std::unique_ptr<computation_party>> cps_;
  std::vector<std::unique_ptr<data_collector>> dcs_;
  std::map<tor::relay_id, data_collector*> dc_by_relay_;
  std::set<tor::relay_id> measured_set_;
};

}  // namespace tormet::psc
