// PR-7 soak test [slow]: one hundred million events of a multi-day trace
// pushed through the sharded DC ingest path under round windowing. The
// trace cannot be materialized (100M events is ~6 GiB), so a reusable
// 64K-event block is re-stamped with each window's sim times and streamed
// through privcount::data_collector::ingest in deliberately uneven spans —
// every shard boundary, block boundary, and window boundary is crossed
// millions of times. With noise off and no blinding, each round's report
// must equal the analytically expected counts exactly, shard counts 1 and
// 3 must be byte-identical, and not one event may be lost.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/instruments.h"
#include "src/core/schedule.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/tor/events.h"

namespace tormet::privcount {
namespace {

constexpr std::uint64_t k_total_events = 100'000'000;
constexpr std::uint32_t k_rounds = 4;
constexpr std::size_t k_block_events = 65'536;

/// The per-block ground truth for the stream_taxonomy counters.
struct block_truth {
  std::uint64_t total = 0;
  std::uint64_t initial = 0;
  std::uint64_t hostname = 0;
  std::uint64_t ipv4 = 0;
  std::uint64_t ipv6 = 0;
  std::uint64_t web = 0;
  std::uint64_t other = 0;
};

/// Builds the reusable event block: a deterministic mix of exit streams
/// (every taxonomy leaf) and entry events (exercising the client-ip shard
/// key), with adversarially uneven shard keys — every 8th event hashes
/// from the same client ip.
[[nodiscard]] std::vector<tor::event> make_block(block_truth& truth) {
  std::vector<tor::event> block;
  block.reserve(k_block_events);
  for (std::size_t i = 0; i < k_block_events; ++i) {
    tor::event ev;
    ev.observer = static_cast<tor::relay_id>(i % 7);
    ev.at = sim_time{0};  // re-stamped per window before every feed
    switch (i % 8) {
      case 0:
        ev.body = tor::entry_connection_event{42};  // all-one-shard skew
        break;
      case 1:
        ev.body = tor::entry_data_event{static_cast<std::uint32_t>(i), i % 997};
        break;
      case 2: {
        tor::exit_stream_event s;
        s.kind = tor::address_kind::ipv4;
        s.is_initial = true;
        s.target = "10.0.0.1";
        ev.body = s;
        ++truth.total;
        ++truth.initial;
        ++truth.ipv4;
        break;
      }
      case 3: {
        tor::exit_stream_event s;
        s.kind = tor::address_kind::ipv6;
        s.is_initial = (i % 16) == 3;
        s.target = "::1";
        ev.body = s;
        ++truth.total;
        if (s.is_initial) {
          ++truth.initial;
          ++truth.ipv6;
        }
        break;
      }
      default: {
        tor::exit_stream_event s;
        s.kind = tor::address_kind::hostname;
        s.is_initial = (i % 2) == 0;
        s.port = (i % 3) == 0 ? 443 : ((i % 3) == 1 ? 80 : 8080);
        s.target = "host" + std::to_string(i % 101) + ".example.com";
        ev.body = s;
        ++truth.total;
        if (s.is_initial) {
          ++truth.initial;
          ++truth.hostname;
          ++((s.port == 80 || s.port == 443) ? truth.web : truth.other);
        }
        break;
      }
    }
    block.push_back(std::move(ev));
  }
  return block;
}

/// One DC wired to an inproc bus that captures its reports. No share
/// keepers and zero sigma: report values are the raw exact counts.
struct soak_dc {
  explicit soak_dc(std::size_t shards)
      : rng{11}, dc{1, 0, bus, rng} {
    bus.register_node(0, [this](const net::message& m) {
      if (static_cast<msg_type>(m.type) == msg_type::dc_report) {
        reports.push_back(decode_dc_report(m));
      }
    });
    dc.add_instrument(core::instrument_by_name("stream_taxonomy"));
    dc.set_shards(shards);
  }

  void open_round(std::uint32_t round_id) {
    configure_msg cfg;
    cfg.round_id = round_id;
    for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
    dc.handle_message(encode_configure(0, 1, cfg));
    dc.handle_message(
        encode_simple(0, 1, msg_type::start_collection, round_id));
  }

  void close_round(std::uint32_t round_id) {
    dc.handle_message(
        encode_simple(0, 1, msg_type::stop_collection, round_id));
    bus.run_until_quiescent();
  }

  net::inproc_net bus;
  crypto::deterministic_rng rng;
  data_collector dc;
  std::vector<dc_report_msg> reports;
};

TEST(IngestSoakTest, HundredMillionEventsAreExactAndShardIndependent) {
  block_truth truth;
  std::vector<tor::event> block = make_block(truth);

  soak_dc dc1{1};
  soak_dc dc3{3};

  const std::uint64_t per_round = k_total_events / k_rounds;
  const std::uint64_t blocks_per_round =
      (per_round + k_block_events - 1) / k_block_events;
  std::uint64_t fed_total = 0;
  for (std::uint32_t round = 0; round < k_rounds; ++round) {
    const std::int64_t window_start = round * k_seconds_per_day;
    const std::int64_t window_end = (round + 1) * k_seconds_per_day;
    dc1.open_round(round + 1);
    dc3.open_round(round + 1);
    std::uint64_t fed = 0;
    for (std::uint64_t b = 0; b < blocks_per_round; ++b) {
      const std::uint64_t want = std::min<std::uint64_t>(
          k_block_events, per_round - b * k_block_events);
      // Re-stamp the block into this round's window, pinning the first and
      // last event of every round to the exact window boundary seconds.
      for (std::size_t i = 0; i < want; ++i) {
        std::int64_t t = window_start +
                         static_cast<std::int64_t>((b * k_block_events + i) %
                                                   k_seconds_per_day);
        if (b == 0 && i == 0) t = window_start;
        if (b + 1 == blocks_per_round && i + 1 == want) t = window_end - 1;
        block[i].at = sim_time{t};
      }
      // Deliberately uneven spans so ingest boundaries never align with
      // block boundaries: a short head, then the remainder.
      const std::size_t head = 1 + static_cast<std::size_t>(b % 61);
      const std::size_t first = std::min<std::size_t>(head, want);
      dc1.dc.ingest(block.data(), first);
      dc3.dc.ingest(block.data(), first);
      if (want > first) {
        dc1.dc.ingest(block.data() + first, want - first);
        dc3.dc.ingest(block.data() + first, want - first);
      }
      fed += want;
    }
    dc1.close_round(round + 1);
    dc3.close_round(round + 1);
    fed_total += fed;
    ASSERT_EQ(fed, per_round);
  }

  // Zero events lost: every event fed in every round was observed.
  EXPECT_EQ(fed_total, k_total_events);
  EXPECT_EQ(dc1.dc.events_observed(), k_total_events);
  EXPECT_EQ(dc3.dc.events_observed(), k_total_events);

  // The per-round reports: exact, and byte-identical across shard counts.
  ASSERT_EQ(dc1.reports.size(), k_rounds);
  ASSERT_EQ(dc3.reports.size(), k_rounds);
  const std::uint64_t whole_blocks = per_round / k_block_events;
  const std::uint64_t tail = per_round % k_block_events;
  // The truth for the short tail block is a prefix count of the template.
  block_truth prefix;
  {
    block_truth ignored;
    const std::vector<tor::event> scratch = make_block(ignored);
    for (std::size_t i = 0; i < tail; ++i) {
      const auto* s = std::get_if<tor::exit_stream_event>(&scratch[i].body);
      if (s == nullptr) continue;
      ++prefix.total;
      if (!s->is_initial) continue;
      ++prefix.initial;
      switch (s->kind) {
        case tor::address_kind::hostname:
          ++prefix.hostname;
          ++((s->port == 80 || s->port == 443) ? prefix.web : prefix.other);
          break;
        case tor::address_kind::ipv4:
          ++prefix.ipv4;
          break;
        case tor::address_kind::ipv6:
          ++prefix.ipv6;
          break;
      }
    }
  }
  const auto expect_of = [&](std::uint64_t per_block,
                             std::uint64_t tail_count) {
    return whole_blocks * per_block + tail_count;
  };
  std::vector<std::string> names;
  for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
    names.push_back(spec.name);
  }
  for (std::uint32_t round = 0; round < k_rounds; ++round) {
    EXPECT_EQ(dc1.reports[round].values, dc3.reports[round].values)
        << "round " << round << " diverged between 1 and 3 shards";
    const auto& values = dc1.reports[round].values;
    ASSERT_EQ(values.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::uint64_t want = 0;
      if (names[i] == "streams/total") {
        want = expect_of(truth.total, prefix.total);
      } else if (names[i] == "streams/initial") {
        want = expect_of(truth.initial, prefix.initial);
      } else if (names[i] == "streams/initial/hostname") {
        want = expect_of(truth.hostname, prefix.hostname);
      } else if (names[i] == "streams/initial/ipv4") {
        want = expect_of(truth.ipv4, prefix.ipv4);
      } else if (names[i] == "streams/initial/ipv6") {
        want = expect_of(truth.ipv6, prefix.ipv6);
      } else if (names[i] == "streams/initial/hostname/web") {
        want = expect_of(truth.web, prefix.web);
      } else if (names[i] == "streams/initial/hostname/other") {
        want = expect_of(truth.other, prefix.other);
      } else {
        FAIL() << "unexpected counter " << names[i];
      }
      EXPECT_EQ(values[i], want) << "round " << round << " counter "
                                 << names[i];
    }
  }
}

}  // namespace
}  // namespace tormet::privcount
