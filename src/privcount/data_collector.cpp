#include "src/privcount/data_collector.h"

#include <algorithm>
#include <cmath>

#include "src/crypto/secret_sharing.h"
#include "src/dp/noise.h"
#include "src/tor/event_shard.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::privcount {

data_collector::data_collector(net::node_id self, net::node_id tally_server,
                               net::transport& transport,
                               crypto::secure_rng& rng)
    : self_{self}, tally_server_{tally_server}, transport_{transport}, rng_{rng} {}

void data_collector::add_instrument(instrument ins) {
  expects(ins != nullptr, "instrument must not be null");
  const auto& mine = ins->counters();
  for (const auto& other : instruments_) {
    for (const auto& name : other.ins->counters()) {
      expects(std::find(mine.begin(), mine.end(), name) == mine.end(),
              "an installed instrument already counts one of its counters");
    }
  }
  // Every counter aims at the trash slot until the next configure
  // compiles the instrument against that round's layout.
  std::vector<std::size_t> trash(mine.size(), counter_names_.size());
  instruments_.push_back({std::move(ins), std::move(trash)});
}

void data_collector::set_shards(std::size_t n) {
  expects(n >= 1, "a DC needs at least one ingest shard");
  expects(!collecting_, "shard count is fixed while a round is collecting");
  if (n == shards_) return;
  shards_ = n;
  // Keep the slab layout in lockstep with the shard count. Between rounds
  // the slabs are all zero (configure zeroes them, stop_collection wipes
  // them), so re-sizing here loses nothing — it only prevents a stale
  // stride if the shard count changes between configure and start.
  if (!counter_names_.empty()) {
    slabs_.assign(shards_ * (counter_names_.size() + 1), 0);
  }
}

void data_collector::set_thread_pool(std::shared_ptr<util::thread_pool> pool) {
  expects(!collecting_, "ingest pool is fixed while a round is collecting");
  pool_ = std::move(pool);
}

void data_collector::on_configure(const configure_msg& m) {
  expects(m.sigmas.size() == m.counter_names.size(),
          "configure message must carry one sigma per counter");
  round_id_ = m.round_id;
  counter_names_ = m.counter_names;
  counter_index_.clear();
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    counter_index_[counter_names_[i]] = i;
  }
  base_.assign(counter_names_.size(), 0);
  // One slab row per shard, with a trailing trash slot absorbing
  // increments to counters not measured this round.
  slabs_.assign(shards_ * (counter_names_.size() + 1), 0);
  collecting_ = false;

  // Compile every instrument against this round's slot layout (counters
  // not measured land in the trash slot and never reach the report).
  for (auto& [ins, slots] : instruments_) {
    for (std::size_t c = 0; c < slots.size(); ++c) {
      const auto it = counter_index_.find(ins->counters()[c]);
      slots[c] = it == counter_index_.end() ? counter_names_.size() : it->second;
    }
  }

  // Per-counter: noise share + blinding. This DC adds Gaussian noise with
  // variance noise_weight * sigma^2 so the DC noises sum to sigma^2 total.
  // Blinds are drawn straight into the per-SK vectors — the whole counter
  // batch needs no per-counter share allocation. Each SK's blind is uniform
  // and the DC keeps their negated sum, so base + Σ sk_blinds == noise
  // (mod 2^64), exactly additive_shares(0, n_sk + 1) without the temp
  // vector.
  std::vector<std::vector<std::uint64_t>> per_sk_shares(
      m.share_keepers.size(),
      std::vector<std::uint64_t>(counter_names_.size(), 0));
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    const double sigma_share = m.sigmas[i] * std::sqrt(m.noise_weight);
    const std::int64_t noise = dp::sample_gaussian_integer(sigma_share, rng_);
    std::uint64_t blind_sum = 0;
    for (std::size_t s = 0; s < m.share_keepers.size(); ++s) {
      const std::uint64_t blind = rng_.next_u64();
      per_sk_shares[s][i] = blind;
      blind_sum += blind;
    }
    base_[i] = static_cast<std::uint64_t>(noise) - blind_sum;
  }
  for (std::size_t s = 0; s < m.share_keepers.size(); ++s) {
    blinding_share_msg share;
    share.round_id = round_id_;
    share.shares = std::move(per_sk_shares[s]);
    transport_.send(
        encode_blinding_share(self_, m.share_keepers[s], share));
  }
  transport_.send(encode_simple(self_, tally_server_, msg_type::dc_ready, round_id_));
}

void data_collector::handle_message(const net::message& msg) {
  switch (static_cast<msg_type>(msg.type)) {
    case msg_type::configure:
      on_configure(decode_configure(msg));
      return;
    case msg_type::start_collection:
      // A round-id mismatch is a stale control from a previous round
      // attempt reaching a restarted DC (the writer resends its queued
      // suffix on reconnect). Crash recovery makes that a drop, not a
      // protocol violation: the TS re-drives the round from configure.
      if (decode_round_id(msg) != round_id_) {
        log_line{log_level::warn}
            << "DC " << self_ << ": stale start_collection; dropping";
        return;
      }
      collecting_ = true;
      return;
    case msg_type::stop_collection: {
      if (decode_round_id(msg) != round_id_) {
        log_line{log_level::warn}
            << "DC " << self_ << ": stale stop_collection; dropping";
        return;
      }
      collecting_ = false;
      dc_report_msg report;
      report.round_id = round_id_;
      merge_slabs(slabs_, shards_, counter_names_.size(), base_, report.values);
      transport_.send(encode_dc_report(self_, tally_server_, report));
      // Forget the round's state: the report is blinded; keeping the base
      // and increments would weaken the "nothing to seize" property.
      base_.assign(base_.size(), 0);
      slabs_.assign(slabs_.size(), 0);
      return;
    }
    default:
      log_line{log_level::warn} << "DC " << self_ << ": unexpected message type "
                                << msg.type;
  }
}

void data_collector::observe(const tor::event& ev) { ingest(&ev, 1); }

void data_collector::ingest(const tor::event* evs, std::size_t n) {
  if (!collecting_ || n == 0) return;
  events_observed_ += n;
  if (shards_ == 1) {
    // Single shard: the contiguous span goes straight to the instruments —
    // no shard keys, no pointer bucketing.
    for (const auto& [ins, slots] : instruments_) {
      ins->ingest(evs, n, slots.data(), slabs_.data());
    }
    return;
  }
  buckets_.resize(shards_);
  for (auto& b : buckets_) b.clear();
  // One chunk of shards per party (pool workers + the calling thread; the
  // caller alone owns every shard without a pool). Each chunk scans the
  // whole span, keeps only the events whose shard key lands in its range,
  // and runs the instruments into its own slab rows. No two chunks touch
  // the same bucket or slab row, so the output is byte-identical for every
  // worker count; the parallel_for return is the window-end merge barrier.
  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = tor::shard_of(tor::shard_key_of(evs[i]), shards_);
      if (s >= begin && s < end) buckets_[s].push_back(evs + i);
    }
    for (std::size_t s = begin; s < end; ++s) ingest_shard(s);
  };
  if (pool_ == nullptr) {
    run_chunk(0, shards_);
    return;
  }
  const std::size_t parties = pool_->size() + 1;
  pool_->parallel_for(shards_, (shards_ + parties - 1) / parties, run_chunk);
}

void data_collector::ingest_shard(std::size_t s) {
  if (buckets_[s].empty()) return;
  std::uint64_t* slab = slabs_.data() + s * (counter_names_.size() + 1);
  for (const auto& [ins, slots] : instruments_) {
    ins->ingest(buckets_[s].data(), buckets_[s].size(), slots.data(), slab);
  }
}

}  // namespace tormet::privcount
