// The unified ingest surface of a data collector: every consumer of
// measurement events — cli::node_runner's windowed replay, the
// orchestrator's in-process reference round, the relay publish
// aggregator (relay::aggregator replays many relays' decoded window
// files as one merged span), benches, soak tests — feeds observed
// tor::events through this one polymorphic interface instead of
// branching on the protocol. Both privcount::data_collector and
// psc::data_collector implement it.
//
// Contract (shared by every implementation):
//   * observe(ev) and ingest(span) are equivalent: ingesting a span is
//     byte-identical to observing its events one by one.
//   * set_shards / set_thread_pool are pure throughput knobs. Tally bytes
//     never depend on the shard count, the worker count, or how the pool
//     schedules the work — PrivCount partitions are keyed by stable
//     per-event hashes and merged by commutative slab addition; a PSC DC
//     ignores the shard count and keeps each bin's last seeded insert,
//     whose ciphertext depends only on (bin, seed).
//   * Ingest-plane reconfiguration is a between-rounds operation: while a
//     round is active the implementation rejects (or defers to the next
//     round's configure) any shard/pool change — see each collector's
//     set_shards documentation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/tor/events.h"
#include "src/util/thread_pool.h"

namespace tormet::core {

class event_sink {
 public:
  virtual ~event_sink() = default;

  /// Feeds one observed event.
  virtual void observe(const tor::event& ev) = 0;

  /// Feeds a contiguous span of observed events — the hot path. The span
  /// is only borrowed for the duration of the call. Equivalent to
  /// observe() per event at a fraction of the cost.
  virtual void ingest(const tor::event* evs, std::size_t n) = 0;

  /// Number of ingest shards (>= 1) events are hash-partitioned across.
  virtual void set_shards(std::size_t n) = 0;
  [[nodiscard]] virtual std::size_t shards() const noexcept = 0;

  /// Worker pool the ingest shards run on (nullptr = all shards execute on
  /// the calling thread). Output bytes are identical with and without a
  /// pool, for every pool size.
  virtual void set_thread_pool(std::shared_ptr<util::thread_pool> pool) = 0;

  /// Events seen while a round was collecting, across all rounds —
  /// observability for trace-replay deployments (only the total is kept).
  [[nodiscard]] virtual std::uint64_t events_observed() const noexcept = 0;
};

}  // namespace tormet::core
