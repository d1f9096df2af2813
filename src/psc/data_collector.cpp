#include "src/psc/data_collector.h"

#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::psc {

data_collector::data_collector(net::node_id self, net::node_id tally_server,
                               net::transport& transport,
                               crypto::secure_rng& rng)
    : self_{self}, tally_server_{tally_server}, transport_{transport}, rng_{rng} {}

void data_collector::set_extractor(extractor fn) { extractor_ = std::move(fn); }

void data_collector::set_thread_pool(std::shared_ptr<util::thread_pool> pool) {
  expects(set_ == nullptr, "ingest pool is fixed while a table is live");
  pool_ = std::move(pool);
}

void data_collector::set_shards(std::size_t n) {
  expects(n >= 1, "a DC needs at least one ingest shard");
  expects(set_ == nullptr, "shard count is fixed while a table is live");
  shards_ = n;
}

void data_collector::handle_message(const net::message& msg) {
  switch (static_cast<msg_type>(msg.type)) {
    case msg_type::dc_configure: {
      const dc_configure_msg m = decode_dc_configure(msg);
      round_id_ = m.round_id;
      group_ = crypto::make_group(static_cast<crypto::group_backend>(m.group));
      set_.reset();  // drop any stale table before its engine
      engine_ = std::make_unique<crypto::batch_engine>(group_, pool_);
      const crypto::group_element joint_pk = group_->decode(m.joint_pk);
      set_ = std::make_unique<oblivious_set>(*engine_, joint_pk,
                                             static_cast<std::size_t>(m.bins), rng_);
      return;
    }
    case msg_type::report_request: {
      if (set_ == nullptr) {
        // A restarted DC can receive a stale report_request (the TS
        // writer's resent suffix) before the retry's dc_configure arrives;
        // the TS re-requests after reconfiguring.
        log_line{log_level::warn}
            << "PSC DC " << self_
            << ": report requested before configuration; dropping";
        return;
      }
      const std::vector<byte_buffer> encoded =
          engine_->encode_batch(set_->take_slots());
      transport_.send(encode_vector(self_, tally_server_, msg_type::dc_vector,
                                    {round_id_, views_of(encoded)}));
      set_.reset();  // the table has been shipped; nothing remains to seize
      return;
    }
    default:
      log_line{log_level::warn} << "PSC DC " << self_
                                << ": unexpected message type " << msg.type;
  }
}

void data_collector::insert_item(std::string_view item) {
  if (set_ == nullptr) return;  // not configured / already reported
  set_->insert(as_bytes(item), rng_);
}

void data_collector::observe(const tor::event& ev) { ingest(&ev, 1); }

void data_collector::ingest(const tor::event* evs, std::size_t n) {
  if (extractor_ == nullptr || set_ == nullptr || n == 0) return;
  events_observed_ += n;
  // Serial pre-pass in event order: hash each extracted item to its bin and
  // draw its insert seed, so the rng stream matches insert_item() per
  // extracted item. The set keeps each bin's last insert, whose ciphertext
  // depends only on (bin, seed), and computes those on the engine's pool.
  inserts_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<std::string> item = extractor_(evs[i]);
    if (!item.has_value()) continue;
    inserts_.push_back({set_->bin_of(as_bytes(*item)), rng_.next_u64()});
  }
  set_->insert_seeded(inserts_);
}

}  // namespace tormet::psc
