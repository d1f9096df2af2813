// The central aggregation service for relay publish directories (the
// moneTor central.sh/combine.py shape): each collection epoch it scans
// the directory, ingests every accepted window into the DC's sharded
// ingest plane as contiguous spans (core::event_sink::ingest, never
// per-event observe), deletes the consumed files, and accounts explicitly
// for every fault the fleet can throw at it — missing publishers, windows
// arriving late, duplicate publishes, and torn/corrupt files.
//
// Ordering: PSC ingest is order-dependent (per-event seed pre-draws), so
// the aggregator orders the accepted windows' events by (epoch, sequence
// number), the numbers the relay_plane stamped at observation time. It
// sorts small (epoch, seq, pointer) keys and moves each event into the
// ingest span once. The merged stream is exactly the DC-local arrival
// order restricted to the sampled subset — which is why the aggregated
// path is byte-identical to feeding the sampled subsequence straight into
// the sink, and at sample_prob 1.0 byte-identical to the plain cursor
// feed.
//
// Lifecycle of a directory entry at collect_epoch(e):
//   * not a canonical pub name ............ ignored (left in place)
//   * (relay, epoch) already consumed ..... duplicates++, deleted
//   * epoch + 1 < e ....................... late_dropped++, deleted
//   * undecodable (torn write, bad CRC) ... rejected++, deleted
//   * epoch == e - 1 (the grace epoch) .... late++, accepted
//   * epoch == e .......................... accepted
//   * expected relay with no epoch-e file . missing++ (a rejected epoch-e
//     file still counts as published: its fault is booked once, under
//     `rejected`)
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "src/core/event_sink.h"

namespace tormet::relay {

/// Cumulative aggregation accounting across epochs — operational counters
/// only (like the TS summary), never measurement data.
struct aggregate_stats {
  std::uint64_t windows_ingested = 0;  ///< accepted windows
  std::uint64_t events_ingested = 0;   ///< sampled events delivered to sink
  std::uint64_t observed = 0;          ///< pre-sampling events (from headers)
  std::uint64_t sampled = 0;           ///< post-sampling events (from headers)
  std::uint64_t missing = 0;           ///< expected publishers with no window
  std::uint64_t duplicates = 0;        ///< re-published consumed windows
  std::uint64_t late = 0;              ///< accepted within the grace
  std::uint64_t late_dropped = 0;      ///< past grace: counted and dropped
  std::uint64_t rejected = 0;          ///< torn/corrupt publishes
};

class aggregator {
 public:
  /// How many epochs behind the current one a late window may trail and
  /// still be ingested.
  static constexpr std::uint64_t k_grace_epochs = 1;

  /// Aggregates `relays` publishers out of `dir`.
  aggregator(std::string dir, std::uint64_t relays);

  /// Collects epoch `epoch`: scans the directory, classifies every entry
  /// per the lifecycle above, merges the accepted windows into DC arrival
  /// order, and delivers them to `sink` as one contiguous ingest span.
  /// Consumed (and dropped) files are deleted. Returns the number of
  /// events ingested this call.
  std::size_t collect_epoch(std::uint64_t epoch, core::event_sink& sink);

  [[nodiscard]] const aggregate_stats& totals() const noexcept {
    return totals_;
  }

 private:
  std::string dir_;
  std::uint64_t relays_;
  aggregate_stats totals_;
  /// (relay, epoch) pairs already ingested, pruned once past the grace.
  std::set<std::pair<std::uint64_t, std::uint64_t>> consumed_;
};

}  // namespace tormet::relay
