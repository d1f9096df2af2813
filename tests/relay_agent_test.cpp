// Relay-embedded stats agent tests: the .pub codec and its file naming,
// the aggregator's whole fault matrix (truncated publish rejected cleanly,
// duplicate publish ingested exactly once, late windows within/past the
// grace, missing publishers counted), the per-circuit sampling predicate,
// and the relay_plane determinism contracts — at sample_prob 1.0 the
// aggregated span is byte-identical to the direct feed, and a sampled run
// is the order-preserving filtered subsequence whose size lands inside the
// analytically derived binomial band. Plan-key round trips for the new
// `workload relays`, `sample_prob`, and `max_restarts` keys ride along.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/crypto/sha256.h"
#include "src/net/wire.h"
#include "src/relay/aggregator.h"
#include "src/relay/publish.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"
#include "src/tor/event_codec.h"
#include "src/tor/event_shard.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace tormet::relay {
namespace {

class tmpdir_guard {
 public:
  tmpdir_guard() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "tormet-relay-XXXXXX")
            .string();
    expects(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    path_ = tmpl;
  }
  ~tmpdir_guard() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Event sink that records every ingested event in arrival order.
class collecting_sink final : public core::event_sink {
 public:
  void observe(const tor::event& ev) override { events.push_back(ev); }
  void ingest(const tor::event* evs, std::size_t n) override {
    events.insert(events.end(), evs, evs + n);
    ++spans;
  }
  void set_shards(std::size_t) override {}
  [[nodiscard]] std::size_t shards() const noexcept override { return 1; }
  void set_thread_pool(std::shared_ptr<util::thread_pool>) override {}
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return events.size();
  }

  std::vector<tor::event> events;
  std::size_t spans = 0;
};

[[nodiscard]] tor::event entry_event(std::uint32_t client_ip, std::int64_t t) {
  tor::event ev;
  ev.observer = 1;
  ev.at = sim_time{t};
  ev.body = tor::entry_connection_event{client_ip};
  return ev;
}

[[nodiscard]] byte_buffer encoded(const tor::event& ev) {
  net::wire_writer w;
  tor::encode_event(w, ev);
  return w.take();
}

/// Byte-level stream equality: the property the whole subsystem exists
/// for (field-wise comparison could miss a codec divergence).
void expect_same_stream(const std::vector<tor::event>& got,
                        const std::vector<tor::event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(encoded(got[i]), encoded(want[i])) << "event " << i;
  }
}

// -- publish codec -----------------------------------------------------------

TEST(RelayPublishTest, WindowRoundTripsThroughCodec) {
  pub_window w;
  w.header = {7, 3, 100, 4};
  for (std::uint64_t i = 0; i < 4; ++i) {
    w.events.emplace_back(10 * i + 2,
                          entry_event(static_cast<std::uint32_t>(i), 50 + i));
  }
  const byte_buffer bytes = encode_pub_window(w);
  const pub_window back = decode_pub_window(bytes);
  EXPECT_EQ(back.header.relay, 7u);
  EXPECT_EQ(back.header.epoch, 3u);
  EXPECT_EQ(back.header.observed, 100u);
  EXPECT_EQ(back.header.sampled, 4u);
  ASSERT_EQ(back.events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.events[i].first, w.events[i].first);
    EXPECT_EQ(encoded(back.events[i].second), encoded(w.events[i].second));
  }
  // Deterministic bytes: re-encoding the decoded window is the identity.
  EXPECT_EQ(encode_pub_window(back), bytes);
}

/// Known-answer bytes of a fixed window: a few hundred seeded events of
/// every variant with scattered sequence numbers, and every 12th event
/// carrying a 56 KiB target, so the window spans two event batches (the
/// 1 MiB soft cap). The digest pins the publish format byte for byte.
TEST(RelayPublishTest, EncodedWindowMatchesKnownDigest) {
  rng r{2018};
  pub_window w;
  w.header = {3, 9, 1'000, 300};
  for (std::uint64_t i = 0; i < 300; ++i) {
    tor::event ev;
    ev.observer = static_cast<tor::relay_id>(r.below(64));
    ev.at = sim_time{static_cast<std::int64_t>(1'000 + i * 7)};
    const auto ip = static_cast<std::uint32_t>(r.next());
    switch (i % 4) {
      case 0:
        ev.body = tor::entry_connection_event{ip};
        break;
      case 1:
        ev.body = tor::entry_circuit_event{ip, tor::circuit_kind::general};
        break;
      case 2:
        ev.body = tor::entry_data_event{ip, r.below(1u << 20)};
        break;
      default:
        ev.body = tor::exit_stream_event{
            tor::address_kind::hostname, r.bernoulli(0.5), 443,
            i % 12 == 3 ? std::string(56 << 10, 'a' + static_cast<char>(i % 26))
                        : "s" + std::to_string(r.below(1'000)) + ".example"};
        break;
    }
    w.events.emplace_back(i * 3 + r.below(3), ev);
  }
  const byte_buffer bytes = encode_pub_window(w);
  EXPECT_EQ(to_hex(crypto::sha256(bytes)),
            "46e4fabf49c393eb85c2454db283ad3fb814527a435817f9bc2e569e3336869f");
  tmpdir_guard dir;
  const std::string path = write_pub_file_atomic(w, dir.path());
  std::ifstream in{path, std::ios::binary};
  const byte_buffer on_disk{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
  EXPECT_EQ(on_disk, bytes);
  EXPECT_EQ(encode_pub_window(decode_pub_window(bytes)), bytes);
}

TEST(RelayPublishTest, EmptyWindowRoundTrips) {
  pub_window w;
  w.header = {0, 12, 55, 0};
  const pub_window back = decode_pub_window(encode_pub_window(w));
  EXPECT_EQ(back.header.observed, 55u);
  EXPECT_TRUE(back.events.empty());
}

TEST(RelayPublishTest, FileNameRoundTripsAndRejectsNonCanonical) {
  std::uint64_t relay = 0, epoch = 0;
  EXPECT_EQ(pub_file_name(3, 17), "relay-3-window-17.pub");
  EXPECT_TRUE(parse_pub_file_name("relay-3-window-17.pub", relay, epoch));
  EXPECT_EQ(relay, 3u);
  EXPECT_EQ(epoch, 17u);
  for (const char* bad :
       {"relay-3-window-17.pub.tmp", "relay--window-17.pub",
        "relay-3-window-.pub", "relay-x-window-17.pub", "window-17.pub",
        "relay-3-window-17", "notes.txt", "relay-3-window-1x7.pub"}) {
    EXPECT_FALSE(parse_pub_file_name(bad, relay, epoch)) << bad;
  }
}

TEST(RelayPublishTest, CorruptBytesThrowPublishError) {
  pub_window w;
  w.header = {1, 0, 2, 2};
  w.events.emplace_back(0, entry_event(9, 1));
  w.events.emplace_back(1, entry_event(10, 2));
  byte_buffer bytes = encode_pub_window(w);

  // Truncation at any cut inside the framed records must throw, never
  // return a partial window.
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2}) {
    EXPECT_THROW((void)decode_pub_window(byte_view{bytes.data(), cut}),
                 publish_error);
  }
  // A flipped payload byte breaks the frame CRC.
  byte_buffer flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x40;
  EXPECT_THROW((void)decode_pub_window(flipped), publish_error);
  EXPECT_THROW((void)decode_pub_window(as_bytes("not a pub file")),
               publish_error);
}

TEST(RelayPublishTest, HugeHeaderCountThrowsPublishError) {
  // A header claiming 2^62 sampled events, then one one-event batch: the
  // decoder may size nothing from the claim, only reject it.
  pub_window w;
  w.header = {1, 0, std::uint64_t{1} << 62, std::uint64_t{1} << 62};
  w.events.emplace_back(0, entry_event(9, 1));
  EXPECT_THROW((void)decode_pub_window(encode_pub_window(w)), publish_error);
}

// -- aggregator fault matrix -------------------------------------------------

TEST(RelayAggregatorTest, TruncatedPublishIsRejectedWithoutPoisoningOthers) {
  tmpdir_guard dir;
  stats_agent good{0, 1, 1.0};
  stats_agent torn{1, 1, 1.0};
  good.offer(0, entry_event(1, 10));
  good.offer(1, entry_event(2, 11));
  torn.offer(2, entry_event(3, 12));
  (void)good.publish(0, dir.path());
  const std::string torn_path = torn.publish(0, dir.path());
  // Simulate a publisher that died mid-write without the atomic rename
  // protecting it: chop the file in half.
  const auto full = std::filesystem::file_size(torn_path);
  std::filesystem::resize_file(torn_path, full / 2);

  aggregator agg{dir.path(), 2};
  collecting_sink sink;
  EXPECT_EQ(agg.collect_epoch(0, sink), 2u);
  expect_same_stream(sink.events, {entry_event(1, 10), entry_event(2, 11)});
  EXPECT_EQ(agg.totals().rejected, 1u);
  EXPECT_EQ(agg.totals().windows_ingested, 1u);
  EXPECT_EQ(agg.totals().missing, 0u);  // the torn relay DID publish
  // Both consumed and rejected files are deleted.
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(RelayAggregatorTest, DuplicatePublishIsIngestedExactlyOnce) {
  tmpdir_guard dir;
  pub_window w;
  w.header = {0, 0, 1, 1};
  w.events.emplace_back(0, entry_event(42, 5));
  (void)write_pub_file_atomic(w, dir.path());

  aggregator agg{dir.path(), 1};
  collecting_sink sink;
  EXPECT_EQ(agg.collect_epoch(0, sink), 1u);

  // A crashed publisher retries after the aggregator already consumed its
  // window: the re-publish lands as a duplicate at the next epoch's scan
  // and must not be ingested again.
  (void)write_pub_file_atomic(w, dir.path());
  EXPECT_EQ(agg.collect_epoch(1, sink), 0u);
  EXPECT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(agg.totals().duplicates, 1u);
  EXPECT_EQ(agg.totals().missing, 1u);  // no window-1 publish either
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(RelayAggregatorTest, LateWindowWithinGraceIsIngested) {
  tmpdir_guard dir;
  pub_window w;
  w.header = {0, 0, 1, 1};  // window 0 arriving while epoch 1 is collected
  w.events.emplace_back(0, entry_event(7, 1));
  (void)write_pub_file_atomic(w, dir.path());
  pub_window now;
  now.header = {0, 1, 1, 1};
  now.events.emplace_back(0, entry_event(8, 100));
  (void)write_pub_file_atomic(now, dir.path());

  aggregator agg{dir.path(), 1};
  collecting_sink sink;
  EXPECT_EQ(agg.collect_epoch(1, sink), 2u);
  // The late window replays whole, BEFORE the current one: epoch-major
  // merge order, since sequence numbers reset per window.
  expect_same_stream(sink.events, {entry_event(7, 1), entry_event(8, 100)});
  EXPECT_EQ(agg.totals().late, 1u);
  EXPECT_EQ(agg.totals().late_dropped, 0u);
  EXPECT_EQ(agg.totals().windows_ingested, 2u);
}

TEST(RelayAggregatorTest, LateWindowPastGraceIsCountedAndDropped) {
  tmpdir_guard dir;
  pub_window w;
  w.header = {0, 0, 1, 1};
  w.events.emplace_back(0, entry_event(7, 1));
  (void)write_pub_file_atomic(w, dir.path());

  aggregator agg{dir.path(), 1};
  collecting_sink sink;
  EXPECT_EQ(agg.collect_epoch(2, sink), 0u);
  EXPECT_TRUE(sink.events.empty());
  EXPECT_EQ(agg.totals().late_dropped, 1u);
  EXPECT_EQ(agg.totals().windows_ingested, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));  // dropped = deleted
}

TEST(RelayAggregatorTest, MissingPublishersAreCounted) {
  tmpdir_guard dir;
  stats_agent a{0, 1, 1.0};
  a.offer(0, entry_event(1, 1));
  (void)a.publish(0, dir.path());

  aggregator agg{dir.path(), 3};  // fleet of 3, only one published
  collecting_sink sink;
  EXPECT_EQ(agg.collect_epoch(0, sink), 1u);
  EXPECT_EQ(agg.totals().missing, 2u);
}

TEST(RelayAggregatorTest, NonCanonicalEntriesAreLeftInPlace) {
  tmpdir_guard dir;
  std::ofstream{dir.path() + "/README"} << "not a window\n";
  aggregator agg{dir.path(), 1};
  collecting_sink sink;
  EXPECT_EQ(agg.collect_epoch(0, sink), 0u);
  EXPECT_EQ(agg.totals().rejected, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/README"));
}

// -- sampling ----------------------------------------------------------------

TEST(RelaySamplingTest, DecisionIsPerCircuitAndDeterministic) {
  const std::uint64_t seed = sampling_seed_of(99);
  // Same circuit key -> same decision, regardless of observer/time.
  for (std::uint32_t ip = 0; ip < 64; ++ip) {
    tor::event a = entry_event(ip, 1);
    tor::event b = entry_event(ip, 999);
    b.observer = 5;
    EXPECT_EQ(sample_event(a, seed, 0.5), sample_event(b, seed, 0.5));
  }
  // Edge probabilities short-circuit.
  EXPECT_TRUE(sample_event(entry_event(1, 1), seed, 1.0));
  EXPECT_FALSE(sample_event(entry_event(1, 1), seed, 0.0));
  // The kept fraction over many distinct circuits tracks p.
  std::size_t kept = 0;
  const std::size_t circuits = 4000;
  for (std::uint32_t ip = 0; ip < circuits; ++ip) {
    if (sample_event(entry_event(ip, 1), seed, 0.3)) ++kept;
  }
  const double expect = 0.3 * circuits;
  const double sd = std::sqrt(0.3 * 0.7 * circuits);
  EXPECT_NEAR(static_cast<double>(kept), expect, 6 * sd);
}

// -- relay plane determinism -------------------------------------------------

[[nodiscard]] std::vector<tor::event> mixed_stream(std::size_t n) {
  std::vector<tor::event> evs;
  evs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // ~60 circuits, interleaved, several events each.
    evs.push_back(entry_event(static_cast<std::uint32_t>(i % 61),
                              static_cast<std::int64_t>(i)));
  }
  return evs;
}

TEST(RelayPlaneTest, FullSamplingIsByteIdenticalToDirectFeed) {
  tmpdir_guard dir;
  const std::vector<tor::event> evs = mixed_stream(500);
  relay_plane plane{8, 1.0, sampling_seed_of(7), dir.path()};
  plane.route(evs.data(), evs.size());
  collecting_sink sink;
  EXPECT_EQ(plane.close_window(0, sink), evs.size());
  // The merged publish directory reconstructs the DC arrival order
  // exactly — the property the byte-identity gate rests on.
  expect_same_stream(sink.events, evs);
  // One contiguous span per window: the sharded ingest plane sees the
  // same call shape as a cursor fast-path delivery.
  EXPECT_EQ(sink.spans, 1u);
  EXPECT_EQ(plane.totals().observed, evs.size());
  EXPECT_EQ(plane.totals().sampled, evs.size());
  EXPECT_EQ(plane.totals().missing, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(RelayPlaneTest, SampledRunIsTheFilteredSubsequence) {
  tmpdir_guard dir;
  const double p = 0.5;
  const std::uint64_t seed = sampling_seed_of(7);
  const std::vector<tor::event> evs = mixed_stream(600);
  relay_plane plane{8, p, seed, dir.path()};
  plane.route(evs.data(), evs.size());
  collecting_sink sink;
  (void)plane.close_window(0, sink);

  std::vector<tor::event> expected;
  for (const auto& ev : evs) {
    if (sample_event(ev, seed, p)) expected.push_back(ev);
  }
  expect_same_stream(sink.events, expected);
  EXPECT_EQ(plane.totals().observed, evs.size());
  EXPECT_EQ(plane.totals().sampled, expected.size());
}

TEST(RelayPlaneTest, SampledCountLandsInsideTheAnalyticBand) {
  // Per-circuit sampling keeps or drops each circuit's whole event bundle,
  // so S = sum over kept circuits of n_k with Var = p(1-p) * sum n_k^2.
  tmpdir_guard dir;
  const double p = 0.4;
  std::vector<tor::event> evs;
  std::map<std::uint32_t, std::uint64_t> per_circuit;
  for (std::uint32_t c = 0; c < 400; ++c) {
    const std::uint64_t n_k = 1 + c % 5;
    per_circuit[c] = n_k;
    for (std::uint64_t i = 0; i < n_k; ++i) {
      evs.push_back(entry_event(c, static_cast<std::int64_t>(evs.size())));
    }
  }
  relay_plane plane{16, p, sampling_seed_of(21), dir.path()};
  plane.route(evs.data(), evs.size());
  collecting_sink sink;
  const std::size_t sampled = plane.close_window(0, sink);

  double var = 0;
  for (const auto& [c, n_k] : per_circuit) {
    var += p * (1 - p) * static_cast<double>(n_k * n_k);
  }
  const double expect = p * static_cast<double>(evs.size());
  EXPECT_NEAR(static_cast<double>(sampled), expect, 6 * std::sqrt(var));
  EXPECT_EQ(sampled, sink.events.size());
}

TEST(RelayPlaneTest, SequenceNumbersResetAcrossWindows) {
  tmpdir_guard dir;
  const std::vector<tor::event> w0 = mixed_stream(50);
  const std::vector<tor::event> w1 = mixed_stream(70);
  relay_plane plane{4, 1.0, sampling_seed_of(3), dir.path()};
  collecting_sink sink;
  plane.route(w0.data(), w0.size());
  EXPECT_EQ(plane.close_window(0, sink), w0.size());
  plane.route(w1.data(), w1.size());
  EXPECT_EQ(plane.close_window(1, sink), w1.size());
  std::vector<tor::event> expected = w0;
  expected.insert(expected.end(), w1.begin(), w1.end());
  expect_same_stream(sink.events, expected);
}

}  // namespace
}  // namespace tormet::relay

// -- plan keys ---------------------------------------------------------------

namespace tormet::cli {
namespace {

TEST(DeploymentPlanTest, RelaysWorkloadRoundTripsAndValidates) {
  deployment_plan plan = make_psc_plan(4, 1, 256);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9100 + i);
  }
  plan.workload.kind = workload_kind::relays;
  plan.workload.relay_count = 200;
  plan.workload.model = "mixed";
  plan.workload.scale = 0.25;
  plan.workload.events = 999;
  plan.workload.gen_seed = 5;
  plan.workload.gen_days = 2;
  const deployment_plan back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.workload.kind, workload_kind::relays);
  EXPECT_EQ(back.workload.relay_count, 200u);
  EXPECT_EQ(back.workload.model, "mixed");
  EXPECT_EQ(back.workload.events, 999u);
  EXPECT_EQ(back.workload.gen_days, 2u);
  EXPECT_EQ(serialize_plan(back), serialize_plan(plan));

  // The fleet must split evenly across the DCs (4 here).
  deployment_plan bad = plan;
  bad.workload.relay_count = 201;
  EXPECT_THROW((void)parse_plan(serialize_plan(bad)), precondition_error);
}

TEST(DeploymentPlanTest, SampleProbAndMaxRestartsRoundTrip) {
  deployment_plan plan = make_psc_plan(2, 1, 256);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9200 + i);
  }
  // Defaults stay off the wire: existing plan files parse unchanged.
  EXPECT_EQ(serialize_plan(plan).find("sample_prob"), std::string::npos);
  EXPECT_EQ(serialize_plan(plan).find("max_restarts"), std::string::npos);
  plan.sample_prob = 0.25;
  plan.max_restarts = 9;
  const deployment_plan back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.sample_prob, 0.25);
  EXPECT_EQ(back.max_restarts, 9);
  EXPECT_EQ(serialize_plan(back), serialize_plan(plan));
  EXPECT_THROW((void)parse_plan(serialize_plan(plan) + "sample_prob 0\n"),
               precondition_error);
  EXPECT_THROW((void)parse_plan(serialize_plan(plan) + "sample_prob 1.5\n"),
               precondition_error);
  EXPECT_THROW((void)parse_plan(serialize_plan(plan) + "max_restarts 1001\n"),
               precondition_error);
  // Durable recovery replays the TS's round log alone: there is no
  // checkpoint cadence to set.
  EXPECT_THROW((void)parse_plan(serialize_plan(plan) + "checkpoint_every 8\n"),
               precondition_error);
  // Replay always runs at full speed: there is no pacing to set.
  EXPECT_THROW((void)parse_plan(serialize_plan(plan) + "pace 0.25\n"),
               precondition_error);
}

}  // namespace
}  // namespace tormet::cli
