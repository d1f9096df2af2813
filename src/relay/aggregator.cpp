#include "src/relay/aggregator.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "src/relay/publish.h"
#include "src/util/logging.h"

namespace tormet::relay {

namespace fs = std::filesystem;

aggregator::aggregator(std::string dir, std::uint64_t relays)
    : dir_{std::move(dir)}, relays_{relays} {}

std::size_t aggregator::collect_epoch(std::uint64_t epoch,
                                      core::event_sink& sink) {
  const std::uint64_t oldest_acceptable =
      epoch >= k_grace_epochs ? epoch - k_grace_epochs : 0;
  std::vector<pub_window> accepted;
  std::set<std::uint64_t> present_now;  // relays with an epoch-`epoch` window
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{dir_, ec}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t relay = 0;
    std::uint64_t window = 0;
    if (!parse_pub_file_name(name, relay, window)) continue;
    if (window > epoch) continue;  // future window: next epoch's business
    if (consumed_.contains({relay, window})) {
      ++totals_.duplicates;
      fs::remove(entry.path(), ec);
      continue;
    }
    if (window < oldest_acceptable) {
      ++totals_.late_dropped;
      log_line{log_level::warn}
          << "relay aggregator: window " << window << " from relay " << relay
          << " is past the grace (current epoch " << epoch << "); dropping";
      fs::remove(entry.path(), ec);
      continue;
    }
    pub_window w;
    try {
      w = load_pub_file(entry.path().string());
    } catch (const publish_error& e) {
      ++totals_.rejected;
      // The relay DID publish this epoch; its fault is fully accounted in
      // `rejected` — counting it missing too would double-book one fault.
      if (window == epoch) present_now.insert(relay);
      log_line{log_level::warn}
          << "relay aggregator: rejecting " << name << ": " << e.what();
      fs::remove(entry.path(), ec);
      continue;
    }
    if (w.header.relay != relay || w.header.epoch != window) {
      ++totals_.rejected;
      if (window == epoch) present_now.insert(relay);
      log_line{log_level::warn}
          << "relay aggregator: rejecting " << name
          << ": header does not match file name";
      fs::remove(entry.path(), ec);
      continue;
    }
    if (window < epoch) ++totals_.late;
    if (window == epoch) present_now.insert(relay);
    consumed_.insert({relay, window});
    totals_.observed += w.header.observed;
    totals_.sampled += w.header.sampled;
    ++totals_.windows_ingested;
    accepted.push_back(std::move(w));
    fs::remove(entry.path(), ec);
  }
  totals_.missing += relays_ > present_now.size()
                         ? relays_ - present_now.size()
                         : 0;

  // Merge the fleet's windows back into DC arrival order. Sequence numbers
  // were assigned once per event at observation time and reset per window,
  // so ordering by (window epoch, seq) reconstructs the original
  // sampled-subset order — late windows replay whole, before the current
  // one. This is the property PSC's order-dependent ingest relies on. Only
  // small keys are sorted; each event then moves into the span once.
  struct merge_key {
    std::uint64_t epoch;
    std::uint64_t seq;
    tor::event* ev;
  };
  std::size_t total = 0;
  for (const auto& w : accepted) total += w.events.size();
  std::vector<merge_key> keys;
  keys.reserve(total);
  for (auto& w : accepted) {
    for (auto& [seq, ev] : w.events) keys.push_back({w.header.epoch, seq, &ev});
  }
  std::sort(keys.begin(), keys.end(),
            [](const merge_key& a, const merge_key& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch : a.seq < b.seq;
            });
  std::vector<tor::event> span;
  span.reserve(keys.size());
  for (const merge_key& k : keys) span.push_back(std::move(*k.ev));
  if (!span.empty()) sink.ingest(span.data(), span.size());
  totals_.events_ingested += span.size();

  // Prune the consumed set: a window past the grace can never be accepted
  // again (its re-publish hits the late_dropped branch without needing the
  // dedup set), so the set stays bounded by relays * (grace + 1).
  for (auto it = consumed_.begin(); it != consumed_.end();) {
    it = it->second < oldest_acceptable ? consumed_.erase(it) : std::next(it);
  }
  return span.size();
}

}  // namespace tormet::relay
