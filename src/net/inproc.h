// Deterministic in-process transport. Messages are queued FIFO and delivered
// synchronously by run_until_quiescent(), so protocol runs are exactly
// reproducible. Failure injection (message drop per link, node partition)
// supports the failure-handling tests.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>

#include "src/net/transport.h"
#include "src/util/rng.h"

namespace tormet::net {

class inproc_net final : public transport {
 public:
  inproc_net() = default;

  void register_node(node_id id, message_handler handler) override;
  void send(message msg) override;
  std::size_t run_until_quiescent() override;

  // -- failure injection --------------------------------------------------
  /// Drops every message to/from `id` (simulates a crashed node).
  void partition_node(node_id id);
  /// Restores delivery for `id`.
  void heal_node(node_id id);
  /// Drops each queued message independently with probability `p`
  /// (deterministic given the seed).
  void set_drop_probability(double p, std::uint64_t seed = 1);

  [[nodiscard]] std::size_t dropped_count() const noexcept { return dropped_; }

 private:
  [[nodiscard]] bool should_drop(const message& msg);

  std::unordered_map<node_id, message_handler> handlers_;
  std::deque<message> queue_;
  std::set<node_id> partitioned_;
  double drop_probability_ = 0.0;
  rng drop_rng_{1};
  std::size_t dropped_ = 0;
  bool delivering_ = false;
};

}  // namespace tormet::net
