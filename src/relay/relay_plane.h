// One DC's simulated relay deployment: a fleet of stats_agents, the
// publish directory they write into, and the aggregator that drains it.
// The DC's windowed cursor stream is routed event-by-assignment onto the
// fleet (stable per-circuit hash, like every partition in the repo), each
// event stamped with a DC-local sequence number; at the window boundary
// every agent publishes its `.pub` file and the aggregator merges the
// directory back into one ordered ingest span for the sharded DC plane.
//
//   cursor window ──route()──> N stats_agents (sample + accumulate)
//                                   │ publish (atomic .pub per relay)
//                              publish dir
//                                   │ collect_epoch (scan/merge/delete)
//                              core::event_sink (sharded DC ingest)
//
// The whole detour is deterministic: at sample_prob 1.0 the merged span
// IS the cursor window (every event kept, order reconstructed), and at
// p < 1.0 it is the order-preserving sampled subsequence — identical to
// filtering the cursor feed directly, which is how the orchestrator's
// reference path checks it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/event_sink.h"
#include "src/relay/aggregator.h"
#include "src/relay/stats_agent.h"

namespace tormet::relay {

class relay_plane {
 public:
  /// A fleet of `relays` agents publishing into `publish_dir` (created if
  /// absent). `sampling_seed` comes from sampling_seed_of(plan.rng_seed).
  relay_plane(std::uint64_t relays, double sample_prob,
              std::uint64_t sampling_seed, const std::string& publish_dir);

  /// Routes a span of observed events onto the fleet: each event goes to
  /// agent shard_of(shard_key_of(ev), relays) carrying the next DC-local
  /// sequence number.
  void route(const tor::event* evs, std::size_t n);

  /// Closes collection window `epoch`: every agent publishes (empty
  /// windows included — absence signals a missing publisher), the
  /// aggregator collects the directory into `sink`, and the sequence
  /// counter resets for the next window. Returns events ingested.
  std::size_t close_window(std::uint64_t epoch, core::event_sink& sink);

  [[nodiscard]] const aggregate_stats& totals() const noexcept {
    return aggregator_.totals();
  }
  [[nodiscard]] std::uint64_t relays() const noexcept {
    return agents_.size();
  }

 private:
  std::string dir_;
  std::vector<stats_agent> agents_;
  aggregator aggregator_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tormet::relay
