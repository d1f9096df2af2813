// PSC data collector: owns the oblivious encrypted bit table for one
// measurement relay, feeds items into it during collection, and ships the
// encrypted table to the tally server on request. Each ingest call is one
// batch of inserts on the DC's crypto pool; the table bytes never depend
// on how events are split into calls or on the worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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
  /// Shares `pool` for the bulk table initialization at configure time,
  /// the inserts of every ingest call and the report's encode. Rejected
  /// while a table is live (between dc_configure and the report): the
  /// ingest plane is reconfigured between rounds only.
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool) override;
  /// Accepted because every event_sink takes a shard count (>= 1), and
  /// rejected while a table is live, like set_thread_pool; ingest does not
  /// read it. An ingest call is one batch on the pool whatever its value.
  void set_shards(std::size_t n) override;
  [[nodiscard]] std::size_t shards() const noexcept override { return shards_; }
  void handle_message(const net::message& msg);
  void observe(const tor::event& ev) override;

  /// Feeds a contiguous batch of observed events: a serial pre-pass runs
  /// the extractor, hashes each item to its bin and draws one insert seed
  /// per item in event order, then the set computes each bin's last insert
  /// in one engine pass (oblivious_set::insert_seeded). Byte-equivalent to
  /// observe() per event.
  void ingest(const tor::event* evs, std::size_t n) override;

  /// Direct item insertion (for callers not going through tor events): a
  /// batch of one insert, like observe().
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
  std::vector<seeded_insert> inserts_;  // ingest scratch, in event order
  std::uint64_t events_observed_ = 0;

  std::uint32_t round_id_ = 0;
  std::shared_ptr<util::thread_pool> pool_;
  std::shared_ptr<const crypto::group> group_;
  std::unique_ptr<crypto::batch_engine> engine_;  // outlives set_ (set_ holds
                                                  // a reference to it)
  std::unique_ptr<oblivious_set> set_;
};

}  // namespace tormet::psc
