#include "src/net/inproc.h"

#include "src/util/check.h"

namespace tormet::net {

void inproc_net::register_node(node_id id, message_handler handler) {
  expects(handler != nullptr, "handler must be callable");
  handlers_[id] = std::move(handler);
}

void inproc_net::send(message msg) { queue_.push_back(std::move(msg)); }

bool inproc_net::should_drop(const message& msg) {
  if (partitioned_.contains(msg.from) || partitioned_.contains(msg.to)) return true;
  if (drop_probability_ > 0.0 && drop_rng_.bernoulli(drop_probability_)) return true;
  return false;
}

std::size_t inproc_net::run_until_quiescent() {
  // Handlers may send during delivery; the loop drains until empty.
  // Re-entrant calls (a handler calling run_until_quiescent) are forbidden.
  expects(!delivering_, "run_until_quiescent is not re-entrant");
  delivering_ = true;
  std::size_t n = 0;
  while (!queue_.empty()) {
    message msg = std::move(queue_.front());
    queue_.pop_front();
    if (should_drop(msg)) {
      ++dropped_;
      continue;
    }
    const auto it = handlers_.find(msg.to);
    if (it == handlers_.end()) {
      ++dropped_;  // unknown destination behaves like a dead node
      continue;
    }
    ++n;
    it->second(msg);
  }
  delivering_ = false;
  return n;
}

void inproc_net::partition_node(node_id id) { partitioned_.insert(id); }

void inproc_net::heal_node(node_id id) { partitioned_.erase(id); }

void inproc_net::set_drop_probability(double p, std::uint64_t seed) {
  expects(p >= 0.0 && p <= 1.0, "drop probability must be in [0,1]");
  drop_probability_ = p;
  drop_rng_ = rng{seed};
}

}  // namespace tormet::net
