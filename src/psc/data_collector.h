// PSC data collector: owns the oblivious encrypted bit table for one
// measurement relay, feeds items into it during collection, and ships the
// encrypted table to the tally server on request. Batched ingest is
// sharded by bin and optionally runs the shards on a worker pool; the
// table bytes never depend on the shard count or the worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/event_sink.h"
#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/secure_rng.h"
#include "src/net/transport.h"
#include "src/psc/messages.h"
#include "src/psc/oblivious_set.h"
#include "src/tor/events.h"
#include "src/util/thread_pool.h"

namespace tormet::psc {

class data_collector final : public core::event_sink {
 public:
  /// An extractor maps an observed event to the item whose distinctness is
  /// being counted (client IP string, SLD, onion address, ...); nullopt
  /// means the event does not contribute.
  using extractor = std::function<std::optional<std::string>(const tor::event&)>;

  data_collector(net::node_id self, net::node_id tally_server,
                 net::transport& transport, crypto::secure_rng& rng);

  void set_extractor(extractor fn);
  /// Shares `pool` for the bulk table initialization at configure time, the
  /// report's encode and running the ingest shards. Rejected while a table
  /// is live (between dc_configure and the report): the ingest plane is
  /// reconfigured between rounds only.
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool) override;
  /// Number of ingest shards (>= 1) for batched ingest. The table bytes
  /// are identical for every value: seeds are pre-drawn per insert in
  /// event order and bins are owned by exactly one shard, so the
  /// last-insert-wins slot contents never depend on the partition.
  /// Rejected while a table is live, like set_thread_pool.
  void set_shards(std::size_t n) override;
  [[nodiscard]] std::size_t shards() const noexcept override { return shards_; }
  void handle_message(const net::message& msg);
  void observe(const tor::event& ev) override;

  /// Feeds a contiguous batch of observed events: a serial pre-pass runs
  /// the extractor and draws one insert seed per item in event order, then
  /// each shard executes the seeded inserts for the bins it owns — one
  /// pool worker per shard chunk when a pool is attached.
  /// Byte-equivalent to observe() per event.
  void ingest(const tor::event* evs, std::size_t n) override;

  /// Direct item insertion (for callers not going through tor events).
  void insert_item(std::string_view item);

  [[nodiscard]] net::node_id id() const noexcept { return self_; }
  [[nodiscard]] bool configured() const noexcept { return set_ != nullptr; }
  /// Events seen / items actually inserted (extractor hits) since
  /// construction — observability for trace-replay deployments (the item
  /// *identities* are never retained, only these totals).
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return events_observed_;
  }

 private:
  net::node_id self_;
  net::node_id tally_server_;
  net::transport& transport_;
  crypto::secure_rng& rng_;
  extractor extractor_;
  std::size_t shards_ = 1;
  /// Ingest scratch: (bin, seed) pairs bucketed by owning shard.
  std::vector<std::vector<std::pair<std::size_t, std::uint64_t>>> buckets_;
  std::uint64_t events_observed_ = 0;

  std::uint32_t round_id_ = 0;
  std::shared_ptr<util::thread_pool> pool_;
  std::shared_ptr<const crypto::group> group_;
  std::unique_ptr<crypto::batch_engine> engine_;  // outlives set_ (set_ holds
                                                  // a reference to its scheme)
  std::unique_ptr<oblivious_set> set_;
};

}  // namespace tormet::psc
