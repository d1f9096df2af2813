// PrivCount protocol tests: exact blinded aggregation, noise behaviour,
// DC dropout recovery, malformed-message tolerance, histograms via
// instruments, multi-round reuse.
#include <gtest/gtest.h>

#include "src/crypto/secret_sharing.h"
#include "src/net/inproc.h"
#include "src/net/wire.h"
#include "src/privcount/deployment.h"
#include "src/privcount/share_keeper.h"
#include "src/tor/network.h"
#include "src/util/check.h"

namespace tormet::privcount {
namespace {

[[nodiscard]] tor::network make_net(std::uint64_t seed = 17) {
  tor::consensus_params params;
  params.num_relays = 200;
  params.seed = 23;
  return tor::network{tor::make_synthetic_consensus(params), seed};
}

/// Instrument counting entry connections into "conns".
[[nodiscard]] data_collector::instrument count_connections() {
  return make_instrument({"conns"}, [](const tor::event& ev, const auto& add) {
    if (std::holds_alternative<tor::entry_connection_event>(ev.body)) {
      add(0, 1);
    }
  });
}

[[nodiscard]] std::map<std::string, counter_result> by_name(
    const std::vector<counter_result>& results) {
  std::map<std::string, counter_result> out;
  for (const auto& r : results) out[r.name] = r;
  return out;
}

class PrivcountRoundTest : public ::testing::Test {
 protected:
  PrivcountRoundTest() : net_{make_net()} {
    guards_ = net_.net().eligible(tor::position::guard);
  }

  deployment_config config(bool noise, std::size_t n_dc = 4,
                           std::size_t n_sk = 3) {
    deployment_config cfg;
    cfg.num_share_keepers = n_sk;
    cfg.measured_relays.assign(guards_.begin(),
                               guards_.begin() + static_cast<long>(n_dc));
    cfg.noise_enabled = noise;
    return cfg;
  }

  tor::network net_;
  std::vector<tor::relay_id> guards_;
};

TEST_F(PrivcountRoundTest, ExactAggregationWithoutNoise) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false)};
  dep.add_instrument(count_connections());
  dep.attach(net_);

  const std::vector<counter_spec> specs{{"conns", 12.0, 1000.0}};
  const auto results = dep.run_round(specs, [&] {
    // Generate traffic: clients connecting to guards; only measured guards'
    // events reach DCs.
    for (int i = 0; i < 500; ++i) {
      tor::client_profile p;
      p.ip = static_cast<std::uint32_t>(i);
      p.num_guards = 3;
      const tor::client_id c = net_.add_client(p);
      net_.connect_to_guards(c, sim_time{0});
    }
  });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "conns");
  EXPECT_EQ(results[0].sigma, 0.0);

  // Expected: exactly the number of connections whose guard is measured.
  std::uint64_t expected = 0;
  // Count directly from ground truth is total; recount via guards_of.
  for (std::uint32_t c = 0; c < net_.client_count(); ++c) {
    for (const auto g : net_.guards_of(c)) {
      if (dep.measured_relays().contains(g)) ++expected;
    }
  }
  EXPECT_EQ(results[0].value, static_cast<std::int64_t>(expected));
}

TEST_F(PrivcountRoundTest, NoiseIsAppliedAtConfiguredSigma) {
  net::inproc_net bus;
  deployment_config cfg = config(/*noise=*/true);
  cfg.privacy = {0.3, 1e-11};
  deployment dep{bus, cfg};
  dep.add_instrument(count_connections());
  dep.attach(net_);

  const double sensitivity = 12.0;
  const std::vector<counter_spec> specs{{"conns", sensitivity, 10000.0}};
  const auto results = dep.run_round(specs, [] {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].sigma, 0.0);
  // True count is zero: the result is pure Gaussian noise; 6 sigma bound
  // fails with probability ~2e-9.
  EXPECT_LT(std::abs(static_cast<double>(results[0].value)),
            6.0 * results[0].sigma);
  // A second run draws fresh noise.
  const auto again = dep.run_round(specs, [] {});
  EXPECT_NE(results[0].value, again[0].value);
}

TEST_F(PrivcountRoundTest, HistogramCountersAreIndependent) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false)};
  dep.add_instrument(make_instrument(
      {"kind/dir", "kind/other"}, [](const tor::event& ev, const auto& add) {
        if (const auto* c = std::get_if<tor::entry_circuit_event>(&ev.body)) {
          add(c->kind == tor::circuit_kind::directory ? 0 : 1, 1);
        }
      }));
  dep.attach(net_);

  // A single-guard client pinned (by rejection) to a measured guard sees
  // all of its circuits observed — histogram counts are then exact.
  tor::client_id pinned = 0;
  for (;;) {
    tor::client_profile p;
    p.ip = 7;
    p.num_guards = 1;
    pinned = net_.add_client(p);
    if (dep.measured_relays().contains(net_.guards_of(pinned)[0])) break;
  }

  const std::vector<counter_spec> specs =
      histogram_specs("kind", {"dir", "other"}, 651.0, 100.0);
  const auto results = by_name(dep.run_round(specs, [&] {
    for (int i = 0; i < 10; ++i) net_.directory_circuit(pinned, 100, sim_time{0});
    for (int i = 0; i < 4; ++i) {
      net_.non_exit_circuit(pinned, tor::circuit_kind::general, 0, sim_time{0});
    }
  }));
  ASSERT_TRUE(results.contains("kind/dir"));
  ASSERT_TRUE(results.contains("kind/other"));
  EXPECT_EQ(results.at("kind/dir").value, 10);
  EXPECT_EQ(results.at("kind/other").value, 4);
}

TEST_F(PrivcountRoundTest, RepeatedCountersAreRejected) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false)};
  dep.add_instrument(count_connections());
  // An instrument sharing a counter with an installed one would count the
  // shared events twice per DC.
  const auto overlapping = make_instrument(
      {"circuits", "conns"}, [](const tor::event&, const auto&) {});
  EXPECT_THROW(dep.add_instrument(overlapping), precondition_error);
  // A repeated spec would split the budget over a counter that stays zero.
  EXPECT_THROW(dep.ts().begin_round(
                   {{"conns", 12.0, 1000.0}, {"conns", 12.0, 1000.0}}, {}),
               precondition_error);

  // Neither rejection touched the deployment: a clean round runs exactly.
  dep.attach(net_);
  const auto results = dep.run_round({{"conns", 12.0, 1000.0}}, [&] {
    tor::client_profile p;
    p.ip = 1;
    p.promiscuous = true;  // hits every guard incl. all measured ones
    net_.connect_to_guards(net_.add_client(p), sim_time{0});
  });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].value, 4);  // one connection per measured relay
  EXPECT_EQ(dep.ts().round_id(), 1u);
}

TEST_F(PrivcountRoundTest, DcDropoutIsRecoverable) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false, /*n_dc=*/4)};
  dep.add_instrument(count_connections());
  dep.attach(net_);

  const std::vector<counter_spec> specs{{"conns", 12.0, 1000.0}};
  tally_server& ts = dep.ts();
  ts.begin_round(specs, {});
  bus.run_until_quiescent();
  ASSERT_TRUE(ts.all_dcs_ready());
  ts.start_collection();
  bus.run_until_quiescent();

  // One DC dies before reporting (node id of the first DC = 1 + n_sk).
  const net::node_id dead_dc = 1 + 3;
  bus.partition_node(dead_dc);

  ts.stop_collection();
  bus.run_until_quiescent();
  EXPECT_EQ(ts.reporting_dcs().size(), 3u);

  ts.request_reveal();
  bus.run_until_quiescent();
  ASSERT_TRUE(ts.results_ready());
  // Blinds of the dead DC are excluded on both sides: the aggregate is the
  // exact count over surviving DCs (0 here), not garbage.
  EXPECT_EQ(ts.results()[0].value, 0);
}

TEST_F(PrivcountRoundTest, ResultsNotReadyWithoutAllShareKeepers) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false)};
  dep.add_instrument(count_connections());
  dep.attach(net_);

  tally_server& ts = dep.ts();
  ts.begin_round({{"conns", 12.0, 1000.0}}, {});
  bus.run_until_quiescent();
  ts.start_collection();
  ts.stop_collection();
  bus.run_until_quiescent();

  // Partition one SK: reveal cannot complete.
  bus.partition_node(1);
  ts.request_reveal();
  bus.run_until_quiescent();
  EXPECT_FALSE(ts.results_ready());
  EXPECT_THROW((void)ts.results(), tormet::precondition_error);
}

TEST_F(PrivcountRoundTest, StaleAndMalformedMessagesIgnored) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false)};
  dep.add_instrument(count_connections());
  dep.attach(net_);

  const auto results = dep.run_round({{"conns", 12.0, 1000.0}}, [&] {
    // Inject a stale DC report (wrong round id) and a wrong-arity report.
    dc_report_msg stale;
    stale.round_id = 999;
    stale.values = {123};
    bus.send(encode_dc_report(4, 0, stale));
    dc_report_msg bad;
    bad.round_id = dep.ts().round_id();
    bad.values = {1, 2, 3};  // arity mismatch
    bus.send(encode_dc_report(5, 0, bad));
  });
  EXPECT_EQ(results[0].value, 0);
}

TEST_F(PrivcountRoundTest, SequentialRoundsAreIndependent) {
  net::inproc_net bus;
  deployment dep{bus, config(/*noise=*/false)};
  dep.add_instrument(count_connections());
  dep.attach(net_);

  const std::vector<counter_spec> specs{{"conns", 12.0, 1000.0}};
  const auto r1 = dep.run_round(specs, [&] {
    tor::client_profile p;
    p.ip = 1;
    p.promiscuous = true;  // hits every guard incl. all measured ones
    const tor::client_id c = net_.add_client(p);
    net_.connect_to_guards(c, sim_time{0});
  });
  EXPECT_EQ(r1[0].value, 4);  // one connection per measured relay (4 DCs)

  const auto r2 = dep.run_round(specs, [] {});
  EXPECT_EQ(r2[0].value, 0);  // counters were reset between rounds
}

TEST(PrivcountTallyServerTest, CombineWrapsTheRingOnHugeCounterVectors) {
  // A per-domain census runs to 2^16 counters, and every DC value plus SK
  // sum below wraps past 2^64. Driven directly via handle_message so the
  // report size is under test control.
  constexpr std::size_t n = std::size_t{1} << 16;
  std::vector<counter_spec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back({"c" + std::to_string(i), 1.0, 10.0});
  }
  dc_report_msg dc;
  dc.round_id = 1;
  dc.values.resize(n);
  sk_report_msg sk;
  sk.round_id = 1;
  sk.sums.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    dc.values[i] = i * 3 + 1;
    sk.sums[i] = ~std::uint64_t{0} - i;  // exercises ring wraparound
  }

  net::inproc_net bus;  // configure messages stay queued; TS is driven directly
  tally_server ts{0, bus, {4}, {1}};
  ts.set_noise_enabled(false);
  ts.begin_round(specs, {1.0, 1e-6});
  ts.handle_message(encode_dc_report(4, 0, dc));
  ts.handle_message(encode_sk_report(1, 0, sk));
  ASSERT_TRUE(ts.results_ready());
  const std::vector<counter_result> results = ts.results();
  ASSERT_EQ(results.size(), n);
  // (3i + 1) + (2^64 - 1 - i) = 2i mod 2^64.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(results[i].value, crypto::to_signed_count(2 * i)) << "counter " << i;
  }
}

// Regression tests for two message races a distributed deployment exposes
// (DC->SK shares, TS->SK configure/reveal travel on independent TCP
// channels, so arrival order across channels is arbitrary). Both were
// invisible over the synchronous inproc bus.
TEST(ShareKeeperRaceTest, RevealArrivingBeforeSharesIsDeferred) {
  net::inproc_net bus;
  share_keeper sk{1, 0, bus};
  sk_report_msg got;
  bool reported = false;
  bus.register_node(0, [&](const net::message& m) {
    got = decode_sk_report(m);
    reported = true;
  });

  configure_msg cfg;
  cfg.round_id = 1;
  cfg.counter_names = {"a", "b"};
  cfg.sigmas = {0.0, 0.0};
  sk.handle_message(encode_configure(0, 1, cfg));
  // Reveal names DCs 5 and 6, but share 6 is still "in flight": the SK
  // must hold the reveal instead of publishing a partial (wrong) sum.
  sk.handle_message(encode_blinding_share(5, 1, {1, {10, 20}}));
  sk.handle_message(encode_sk_reveal(0, 1, {1, {5, 6}}));
  bus.run_until_quiescent();
  EXPECT_FALSE(reported);

  sk.handle_message(encode_blinding_share(6, 1, {1, {1, 2}}));
  bus.run_until_quiescent();
  ASSERT_TRUE(reported);
  EXPECT_EQ(got.sums, (std::vector<std::uint64_t>{11, 22}));
}

TEST(ShareKeeperRaceTest, ShareArrivingBeforeConfigureIsBuffered) {
  net::inproc_net bus;
  share_keeper sk{1, 0, bus};
  sk_report_msg got;
  bool reported = false;
  bus.register_node(0, [&](const net::message& m) {
    got = decode_sk_report(m);
    reported = true;
  });

  // The DC's share for round 1 beats the SK's own configure through the
  // fabric; it must be buffered, not dropped as stale.
  sk.handle_message(encode_blinding_share(5, 1, {1, {7, 9}}));
  configure_msg cfg;
  cfg.round_id = 1;
  cfg.counter_names = {"a", "b"};
  cfg.sigmas = {0.0, 0.0};
  sk.handle_message(encode_configure(0, 1, cfg));
  sk.handle_message(encode_sk_reveal(0, 1, {1, {5}}));
  bus.run_until_quiescent();
  ASSERT_TRUE(reported);
  EXPECT_EQ(got.sums, (std::vector<std::uint64_t>{7, 9}));
}

TEST(PrivcountMessagesTest, ConfigureRoundTrip) {
  configure_msg m;
  m.round_id = 7;
  m.counter_names = {"a", "b"};
  m.sigmas = {1.5, 2.5};
  m.noise_weight = 0.25;
  m.share_keepers = {1, 2, 3};
  const net::message wire = encode_configure(0, 9, m);
  EXPECT_EQ(wire.to, 9u);
  const configure_msg back = decode_configure(wire);
  EXPECT_EQ(back.round_id, 7u);
  EXPECT_EQ(back.counter_names, m.counter_names);
  EXPECT_EQ(back.sigmas, m.sigmas);
  EXPECT_DOUBLE_EQ(back.noise_weight, 0.25);
  EXPECT_EQ(back.share_keepers, m.share_keepers);
}

TEST(PrivcountMessagesTest, MalformedConfigureThrows) {
  configure_msg m;
  m.round_id = 1;
  m.counter_names = {"a"};
  m.sigmas = {1.0, 2.0};  // arity mismatch
  const net::message wire = encode_configure(0, 1, m);
  EXPECT_THROW((void)decode_configure(wire), net::wire_error);

  net::message junk;
  junk.payload = {0x01};
  EXPECT_THROW((void)decode_configure(junk), net::wire_error);
}

TEST(PrivcountMessagesTest, ReportRoundTrips) {
  dc_report_msg dc;
  dc.round_id = 3;
  dc.values = {~0ULL, 0, 42};
  EXPECT_EQ(decode_dc_report(encode_dc_report(1, 0, dc)).values, dc.values);

  sk_report_msg sk;
  sk.round_id = 3;
  sk.sums = {7, 8};
  EXPECT_EQ(decode_sk_report(encode_sk_report(1, 0, sk)).sums, sk.sums);

  sk_reveal_msg rv;
  rv.round_id = 3;
  rv.reporting_dcs = {4, 5, 6};
  EXPECT_EQ(decode_sk_reveal(encode_sk_reveal(0, 1, rv)).reporting_dcs,
            rv.reporting_dcs);
}

}  // namespace
}  // namespace tormet::privcount
