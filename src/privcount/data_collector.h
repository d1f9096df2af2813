// PrivCount data collector (DC): runs beside one instrumented Tor relay.
// On configure it samples its Gaussian noise share and one blinding value
// per (counter, share keeper); the blinded base values start at
// noise − Σ blinds (mod 2^64), so a seized DC reveals nothing (every proper
// subset of {DC value, blinds} is uniformly random). Events increment flat
// per-shard counter slabs during collection — the observe path is sharded
// by client/circuit hash and optionally runs the shards on a worker pool,
// each worker owning its shard's slab row exclusively — and the final
// report merges base + slabs deterministically, so its bytes never depend
// on the shard count or the worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/event_sink.h"
#include "src/crypto/secure_rng.h"
#include "src/net/transport.h"
#include "src/privcount/counter_slab.h"
#include "src/privcount/messages.h"
#include "src/tor/events.h"
#include "src/util/thread_pool.h"

namespace tormet::privcount {

class data_collector final : public core::event_sink {
 public:
  /// A shared handle to an immutable instrument: every DC and every shard
  /// worker that installs it runs the same object (see batch_instrument).
  using instrument = std::shared_ptr<const batch_instrument>;

  data_collector(net::node_id self, net::node_id tally_server,
                 net::transport& transport, crypto::secure_rng& rng);

  /// Installs an instrument; it counts from the next round's configure on.
  /// Rejects one whose counters overlap an installed instrument's: the
  /// overlapping events would be counted twice under a sensitivity sized
  /// for once.
  void add_instrument(instrument ins);

  /// Number of ingest shards (>= 1). A between-rounds operation: changing
  /// it re-sizes the (all-zero) counter slabs immediately so the slab
  /// layout and the shard count can never disagree, and is rejected while
  /// a round is collecting. Tally bytes are identical for every value —
  /// sharding buys locality and parallelism, not semantics.
  void set_shards(std::size_t n) override;
  [[nodiscard]] std::size_t shards() const noexcept override { return shards_; }

  /// Worker pool the ingest shards run on (nullptr = calling thread only).
  /// Each worker owns its shard's slab row exclusively and the merge order
  /// is fixed, so report bytes are identical for every pool size. Rejected
  /// while a round is collecting, like set_shards.
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool) override;

  /// Transport handler (register with the transport for `self`).
  void handle_message(const net::message& msg);

  /// Feeds one observed event (only counted while a round is collecting).
  void observe(const tor::event& ev) override;

  /// Feeds a contiguous batch of observed events: partitions them across
  /// the ingest shards and runs every instrument per shard over flat
  /// slabs, one pool worker per shard when a pool is attached. Equivalent
  /// to observe() per event, at a fraction of the cost.
  void ingest(const tor::event* evs, std::size_t n) override;

  [[nodiscard]] net::node_id id() const noexcept { return self_; }
  [[nodiscard]] bool collecting() const noexcept { return collecting_; }
  /// Events counted while collecting, across all rounds — observability
  /// for trace-replay deployments (only the total is kept; the blinded
  /// counters reveal nothing per-event).
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return events_observed_;
  }

 private:
  /// An installed instrument and this round's slab slot of each of its
  /// counters (the trash slot for counters not measured this round).
  struct installed {
    instrument ins;
    std::vector<std::size_t> slots;
  };

  void on_configure(const configure_msg& m);
  /// Runs every instrument over shard `s`'s bucket into its slab row.
  void ingest_shard(std::size_t s);

  net::node_id self_;
  net::node_id tally_server_;
  net::transport& transport_;
  crypto::secure_rng& rng_;
  std::vector<installed> instruments_;

  std::uint32_t round_id_ = 0;
  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::vector<std::uint64_t> base_;   // blinded start values (noise − blinds)
  std::vector<std::uint64_t> slabs_;  // shards_ rows of (counters + 1) slots
  std::size_t shards_ = 1;
  std::shared_ptr<util::thread_pool> pool_;  // ingest workers (may be null)
  std::vector<std::vector<const tor::event*>> buckets_;  // ingest scratch
  bool collecting_ = false;
  std::uint64_t events_observed_ = 0;
};

}  // namespace tormet::privcount
