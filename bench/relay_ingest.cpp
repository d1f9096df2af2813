// Many-publisher relay-agent ingest throughput: the PR-10 fleet path. A
// generated zipf stream is routed onto a simulated fleet of embedded relay
// stats agents (per-circuit shard assignment, the relay_plane's routing),
// each agent publishes its window as a versioned CRC-framed .pub file, and
// the aggregation service scans the directory, merge-sorts the fleet's
// windows back into DC arrival order, and delivers one contiguous span to
// a PrivCount DC's sharded ingest plane. Phases measured:
//   publish   — route + per-relay window encode + atomic .pub writes
//   aggregate — directory scan + decode + merge + dc.ingest()
//   cycle     — a full window cycle through relay_plane::close_window
// The paper's relay-side constraint is an always-on agent at ~23k
// events/s network share; a 200-publisher aggregation epoch has to clear
// the same bar comfortably on the DC side.
//
// Usage: relay_ingest [events] [--relays N] [--json]
#include "common.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/core/instruments.h"
#include "src/crypto/secure_rng.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/relay/aggregator.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"
#include "src/tor/event_shard.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace tormet;
using clock_type = std::chrono::steady_clock;

double secs_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Sink that only counts: isolates the publish+merge cost from instrument
/// evaluation.
class counting_sink final : public core::event_sink {
 public:
  void observe(const tor::event&) override { ++count_; }
  void ingest(const tor::event*, std::size_t n) override { count_ += n; }
  void set_shards(std::size_t) override {}
  [[nodiscard]] std::size_t shards() const noexcept override { return 1; }
  void set_thread_pool(std::shared_ptr<util::thread_pool>) override {}
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return count_;
  }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t target_events = 200'000;
  std::uint64_t relays = 200;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--relays") == 0 && i + 1 < argc) {
      relays = std::strtoull(argv[++i], nullptr, 10);
    } else {
      target_events = std::strtoull(argv[i], nullptr, 10);
    }
  }

  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = target_events;
  params.seed = 8;
  const std::vector<tor::event> events =
      workload::generate_trace_events(params).front();
  const std::size_t n = events.size();
  const std::uint64_t seed = relay::sampling_seed_of(8);

  char tmpl[] = "/tmp/tormet-relay-bench-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "relay_ingest: mkdtemp failed\n");
    return 1;
  }

  // -- publish phase: route + encode + atomic per-relay window writes -------
  std::vector<relay::stats_agent> agents;
  agents.reserve(relays);
  for (std::uint64_t r = 0; r < relays; ++r) {
    agents.emplace_back(r, seed, 1.0);
  }
  std::size_t published_windows = 0;
  std::uint64_t published_events = 0;
  double publish_s = 0.0;
  double aggregate_s = 0.0;
  counting_sink merge_sink;
  relay::aggregator agg{dir, relays};
  std::uint64_t epoch = 0;
  const auto wall0 = clock_type::now();
  do {
    const auto t0 = clock_type::now();
    std::uint64_t seq = 0;
    for (const tor::event& ev : events) {
      const std::size_t r = tor::shard_of(tor::shard_key_of(ev), relays);
      agents[r].offer(seq++, ev);
    }
    for (auto& agent : agents) agent.publish(epoch, dir);
    publish_s += secs_since(t0);
    published_windows += relays;
    published_events += n;

    // -- aggregate phase: scan + decode + merge-sort + span ingest ----------
    const auto t1 = clock_type::now();
    const std::size_t ingested = agg.collect_epoch(epoch, merge_sink);
    aggregate_s += secs_since(t1);
    if (ingested != n) {
      std::fprintf(stderr, "relay_ingest: merge lost events: %zu of %zu\n",
                   ingested, n);
      return 1;
    }
    ++epoch;
  } while (secs_since(wall0) < 0.6);

  // -- full cycle through the DC-embedded plane + sharded PrivCount ingest --
  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{1};
  privcount::data_collector dc{1, 0, bus, rng};
  dc.add_instrument(core::instrument_by_name("stream_taxonomy"));
  dc.set_shards(4);
  {
    privcount::configure_msg cfg;
    cfg.round_id = 1;
    for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
    dc.handle_message(privcount::encode_configure(0, 1, cfg));
    dc.handle_message(privcount::encode_simple(
        0, 1, privcount::msg_type::start_collection, 1));
  }
  relay::relay_plane plane{relays, 1.0, seed, std::string{dir} + "/plane"};
  std::uint64_t cycle_events = 0;
  std::uint64_t window = 0;
  const auto t2 = clock_type::now();
  do {
    plane.route(events.data(), events.size());
    cycle_events += plane.close_window(window++, dc);
  } while (secs_since(t2) < 0.6);
  const double cycle_s = secs_since(t2);
  if (dc.events_observed() != cycle_events) {
    std::fprintf(stderr, "relay_ingest: plane/DC count mismatch\n");
    return 1;
  }

  std::filesystem::remove_all(dir);

  const double publish_eps = static_cast<double>(published_events) / publish_s;
  const double aggregate_eps =
      static_cast<double>(published_events) / aggregate_s;
  const double cycle_eps = static_cast<double>(cycle_events) / cycle_s;
  if (json) {
    std::printf(
        "{\"bench\":\"relay_ingest\",\"relays\":%llu,\"events\":%zu,"
        "\"windows\":%zu,\"publish_eps\":%.0f,\"aggregate_eps\":%.0f,"
        "\"cycle_eps\":%.0f}\n",
        static_cast<unsigned long long>(relays), n, published_windows,
        publish_eps, aggregate_eps, cycle_eps);
    return 0;
  }
  repro_table table{"Relay-agent fleet ingest (" + std::to_string(relays) +
                    " publishers, " + std::to_string(n) +
                    " events per window)"};
  table.add("publish (route+encode+write)", "", format_count(publish_eps) + " ev/s",
            "");
  table.add("aggregate (scan+merge+ingest)", "",
            format_count(aggregate_eps) + " ev/s", "");
  table.add("full window cycle -> sharded DC", "",
            format_count(cycle_eps) + " ev/s", "");
  table.print();
  return 0;
}
