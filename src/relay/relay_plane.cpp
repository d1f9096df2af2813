#include "src/relay/relay_plane.h"

#include <filesystem>

#include "src/tor/event_shard.h"
#include "src/util/check.h"

namespace tormet::relay {

relay_plane::relay_plane(std::uint64_t relays, double sample_prob,
                         std::uint64_t sampling_seed,
                         const std::string& publish_dir)
    : dir_{publish_dir}, aggregator_{publish_dir, relays} {
  expects(relays >= 1, "relay_plane needs at least one relay");
  std::filesystem::create_directories(dir_);
  agents_.reserve(relays);
  for (std::uint64_t r = 0; r < relays; ++r) {
    agents_.emplace_back(r, sampling_seed, sample_prob);
  }
}

void relay_plane::route(const tor::event* evs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r =
        tor::shard_of(tor::shard_key_of(evs[i]), agents_.size());
    agents_[r].offer(next_seq_++, evs[i]);
  }
}

std::size_t relay_plane::close_window(std::uint64_t epoch,
                                      core::event_sink& sink) {
  for (auto& agent : agents_) agent.publish(epoch, dir_);
  next_seq_ = 0;
  return aggregator_.collect_epoch(epoch, sink);
}

}  // namespace tormet::relay
