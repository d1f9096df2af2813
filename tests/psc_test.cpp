// PSC protocol tests: oblivious sets, full rounds over both group backends,
// union semantics, noise, dropout, known-answer tallies, estimator
// inversion, and a parameterized accuracy sweep across bin counts and
// cardinalities.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/net/inproc.h"
#include "src/psc/deployment.h"
#include "src/psc/estimator.h"
#include "src/stats/occupancy.h"
#include "src/tor/network.h"
#include "src/util/check.h"

namespace tormet::psc {
namespace {

// One synthetic consensus shared by every case (building it per test was
// pure overhead — tor::network copies it, so tests stay isolated).
[[nodiscard]] const tor::consensus& shared_consensus() {
  static const tor::consensus doc = [] {
    tor::consensus_params params;
    params.num_relays = 200;
    params.seed = 29;
    return tor::make_synthetic_consensus(params);
  }();
  return doc;
}

[[nodiscard]] tor::network make_net(std::uint64_t seed = 19) {
  return tor::network{shared_consensus(), seed};
}

TEST(ObliviousSetTest, BinMappingIsStableAndInRange) {
  crypto::deterministic_rng rng{1};
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  const auto kp = scheme.generate_keypair(rng);
  oblivious_set set{engine, kp.pub, 64, rng};
  const std::size_t b1 = set.bin_of(as_bytes("item-a"));
  EXPECT_EQ(b1, set.bin_of(as_bytes("item-a")));
  EXPECT_LT(b1, 64u);
  EXPECT_NE(b1, set.bin_of(as_bytes("item-b")));  // 1/64 collision accepted: seed-stable
}

TEST(ObliviousSetTest, InsertSetsExactlyTheHashedBin) {
  crypto::deterministic_rng rng{2};
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  const auto kp = scheme.generate_keypair(rng);
  oblivious_set set{engine, kp.pub, 32, rng};

  set.insert(as_bytes("x"), rng);
  set.insert(as_bytes("x"), rng);  // idempotent by construction
  const std::size_t hot = set.bin_of(as_bytes("x"));
  const auto& slots = set.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const bool is_one = !group->is_identity(scheme.decrypt(kp.secret, slots[i]));
    EXPECT_EQ(is_one, i == hot) << "bin " << i;
  }
}

class PscRoundTest : public ::testing::TestWithParam<crypto::group_backend> {
 protected:
  PscRoundTest() : net_{make_net()} {
    guards_ = net_.net().eligible(tor::position::guard);
  }

  deployment_config config(std::uint64_t bins, bool noise, std::size_t n_dc = 4,
                           std::size_t n_cp = 3) {
    deployment_config cfg;
    cfg.num_computation_parties = n_cp;
    cfg.measured_relays.assign(guards_.begin(),
                               guards_.begin() + static_cast<long>(n_dc));
    cfg.round.bins = bins;
    cfg.round.group = GetParam();
    cfg.round.noise_enabled = noise;
    cfg.round.sensitivity = 4.0;
    return cfg;
  }

  tor::network net_;
  std::vector<tor::relay_id> guards_;
};

TEST_P(PscRoundTest, CountsUnionWithoutNoise) {
  net::inproc_net bus;
  deployment dep{bus, config(256, /*noise=*/false)};
  dep.set_extractor([](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return std::to_string(c->client_ip);
    }
    return std::nullopt;
  });
  dep.attach(net_);

  std::set<std::uint32_t> observed_ips;
  const round_outcome out = dep.run_round([&] {
    for (int i = 0; i < 100; ++i) {
      tor::client_profile p;
      p.ip = static_cast<std::uint32_t>(1000 + i % 60);  // duplicates across clients
      p.num_guards = 2;
      const tor::client_id c = net_.add_client(p);
      // Two connection rounds: same IP at possibly multiple guards — the
      // union must still count it once.
      net_.connect_to_guards(c, sim_time{0});
      for (const auto g : net_.guards_of(c)) {
        if (dep.measured_relays().contains(g)) observed_ips.insert(p.ip);
      }
    }
  });

  EXPECT_EQ(out.total_noise_bits, 0u);
  // Without noise, raw_count == occupied bins of the union. Collisions can
  // only reduce it.
  EXPECT_LE(out.raw_count, observed_ips.size());
  EXPECT_GE(out.raw_count, observed_ips.size() * 9 / 10);
  // Collision-corrected estimate should be close to the truth.
  EXPECT_NEAR(out.estimate.cardinality, static_cast<double>(observed_ips.size()),
              static_cast<double>(observed_ips.size()) * 0.15 + 3.0);
}

TEST_P(PscRoundTest, NoiseShiftsCountByExpectedAmount) {
  net::inproc_net bus;
  deployment_config cfg = config(128, /*noise=*/true);
  // Light noise so the p256 backend stays fast: ~20 bits/CP still exercises
  // the full noise path, and the T/2 shift assertion below is scale-free.
  // The paper-strength parameters run in the [slow] big-bin round test.
  cfg.round.sensitivity = 1.0;
  cfg.round.privacy = {2.0, 1e-4};
  deployment dep{bus, cfg};
  dep.set_extractor([](const tor::event&) { return std::nullopt; });
  dep.attach(net_);

  const round_outcome out = dep.run_round([] {});
  EXPECT_GT(out.total_noise_bits, 0u);
  // No items: raw count is pure Binomial(T, 1/2) noise.
  const double t = static_cast<double>(out.total_noise_bits);
  EXPECT_NEAR(static_cast<double>(out.raw_count), t / 2.0,
              6.0 * std::sqrt(t) / 2.0 + 1.0);
  // The estimator subtracts the expected offset: estimate near zero.
  EXPECT_LT(out.estimate.cardinality, t);
}

TEST_P(PscRoundTest, DcDropoutExcludesItsItems) {
  net::inproc_net bus;
  deployment dep{bus, config(256, /*noise=*/false, /*n_dc=*/3)};
  dep.set_extractor([](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return std::to_string(c->client_ip);
    }
    return std::nullopt;
  });
  dep.attach(net_);

  tally_server& ts = dep.ts();
  round_params rp;
  rp.bins = 256;
  rp.group = GetParam();
  rp.noise_enabled = false;
  rp.sensitivity = 4.0;
  ts.begin_round(rp);
  bus.run_until_quiescent();
  ASSERT_TRUE(ts.setup_complete());

  // Traffic at all DCs.
  for (int i = 0; i < 50; ++i) {
    tor::client_profile p;
    p.ip = static_cast<std::uint32_t>(i);
    p.promiscuous = true;  // guarantees every measured relay sees it
    const tor::client_id c = net_.add_client(p);
    net_.connect_to_guards(c, sim_time{0});
  }

  // Kill one DC (first DC node id = 1 + n_cp = 4).
  bus.partition_node(4);
  ts.request_reports();
  bus.run_until_quiescent();
  EXPECT_FALSE(ts.result_ready());
  EXPECT_EQ(ts.reporting_dcs().size(), 2u);

  bus.heal_node(4);     // healing does not resurrect its report
  ts.force_mixing();
  bus.run_until_quiescent();
  ASSERT_TRUE(ts.result_ready());
  // Every IP was seen by every DC (promiscuous), so the union over the two
  // surviving DCs is still all 50 items.
  const cardinality_estimate est =
      estimate_cardinality(ts.raw_count(), 256, ts.total_noise_bits());
  EXPECT_NEAR(est.cardinality, 50.0, 10.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, PscRoundTest,
                         ::testing::Values(crypto::group_backend::toy,
                                           crypto::group_backend::p256),
                         [](const auto& info) {
                           return info.param == crypto::group_backend::toy
                                      ? "toy"
                                      : "p256";
                         });

// Known answers: the raw count and noise bits of fixed-seed in-process
// rounds, recorded when each CP still decrypted in a second pass down the
// chain. The coins every CP draws and the bins every DC sets decide both,
// so a change to how the chain encrypts, mixes or strips must keep them.
struct known_round {
  crypto::group_backend group;
  std::size_t cps;
  std::uint64_t raw_count;
  std::uint64_t noise_bits;
};

class PscKnownAnswerTest : public ::testing::TestWithParam<known_round> {};

TEST_P(PscKnownAnswerTest, FixedSeedRoundKeepsItsTally) {
  const known_round& k = GetParam();
  net::inproc_net bus;
  deployment_config cfg;
  cfg.num_computation_parties = k.cps;
  cfg.measured_relays = {0, 1, 2};
  cfg.round.bins = 512;
  cfg.round.group = k.group;
  cfg.round.sensitivity = 2.0;
  cfg.round.privacy = {1.0, 1e-4};  // 318 noise bits per CP
  cfg.rng_seed = 2404;
  deployment dep{bus, cfg};
  // Three overlapping sets of 120 items, 220 distinct.
  const round_outcome out = dep.run_round([&] {
    for (std::size_t d = 0; d < 3; ++d) {
      for (std::size_t i = 0; i < 120; ++i) {
        dep.dc_at(d).insert_item("client-" + std::to_string(50 * d + i));
      }
    }
  });
  EXPECT_EQ(out.raw_count, k.raw_count);
  EXPECT_EQ(out.total_noise_bits, k.noise_bits);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, PscKnownAnswerTest,
    ::testing::Values(known_round{crypto::group_backend::toy, 1, 344, 318},
                      known_round{crypto::group_backend::toy, 2, 504, 636},
                      known_round{crypto::group_backend::toy, 3, 644, 954},
                      known_round{crypto::group_backend::p256, 1, 345, 318},
                      known_round{crypto::group_backend::p256, 2, 504, 636},
                      known_round{crypto::group_backend::p256, 3, 644, 954}),
    [](const auto& info) {
      return std::string{info.param.group == crypto::group_backend::toy
                             ? "toy"
                             : "p256"} +
             "_cps" + std::to_string(info.param.cps);
    });

// Accuracy sweep: bins x cardinality, toy backend (speed). Property: the
// collision-corrected estimate tracks the true distinct count.
struct sweep_case {
  std::uint64_t bins;
  std::size_t items;
};

class PscAccuracySweep : public ::testing::TestWithParam<sweep_case> {};

TEST_P(PscAccuracySweep, EstimatorRecoversCardinality) {
  const auto [bins, items] = GetParam();
  crypto::deterministic_rng rng{42};
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  const auto kp = scheme.generate_keypair(rng);

  oblivious_set set{engine, kp.pub, bins, rng};
  for (std::size_t i = 0; i < items; ++i) {
    set.insert(as_bytes("item" + std::to_string(i)), rng);
  }
  std::uint64_t occupied = 0;
  for (const auto& slot : set.slots()) {
    if (!group->is_identity(scheme.decrypt(kp.secret, slot))) ++occupied;
  }
  const cardinality_estimate est = estimate_cardinality(occupied, bins, 0);
  // Within 5 occupancy-standard-deviations plus small absolute slack.
  const double slack =
      5.0 * std::sqrt(static_cast<double>(items) + 1.0) + 8.0;
  EXPECT_NEAR(est.cardinality, static_cast<double>(items), slack)
      << "bins=" << bins << " items=" << items;
}

INSTANTIATE_TEST_SUITE_P(
    BinsByItems, PscAccuracySweep,
    ::testing::Values(sweep_case{256, 20}, sweep_case{256, 100},
                      sweep_case{1024, 100}, sweep_case{1024, 500},
                      sweep_case{4096, 500}, sweep_case{4096, 2000},
                      sweep_case{16384, 2000}, sweep_case{16384, 8000}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.bins) + "_n" +
             std::to_string(info.param.items);
    });

TEST(PscEstimatorTest, ForwardModelAndInversion) {
  EXPECT_DOUBLE_EQ(stats::occupancy_mean(0, 128), 0.0);
  EXPECT_NEAR(stats::occupancy_mean(128, 128),
              128 * (1 - std::pow(1 - 1.0 / 128, 128)), 1e-9);
  // Inversion is the exact inverse of the forward model.
  for (const std::uint64_t n : {5, 50, 200}) {
    const double occ = stats::occupancy_mean(n, 512);
    const cardinality_estimate est =
        estimate_cardinality(static_cast<std::uint64_t>(occ + 0.5), 512, 0);
    const double want = static_cast<double>(n);
    EXPECT_NEAR(est.cardinality, want, want * 0.05 + 1.5);
  }
}

TEST(PscEstimatorTest, NoiseSubtractionAndClamping) {
  // Raw below expected noise clamps to zero.
  const cardinality_estimate low = estimate_cardinality(3, 64, 20);
  EXPECT_DOUBLE_EQ(low.cardinality, 0.0);
  // Full table clamps to bins-1 (finite inverse).
  const cardinality_estimate full = estimate_cardinality(64, 64, 0);
  EXPECT_GT(full.cardinality, 100.0);
  EXPECT_THROW((void)estimate_cardinality(1, 1, 0), tormet::precondition_error);
}

TEST(PscMessagesTest, VectorRoundTrip) {
  const auto group = crypto::make_toy_group();
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{3};
  const auto kp = scheme.generate_keypair(rng);

  std::vector<crypto::elgamal_ciphertext> cts;
  for (int i = 0; i < 5; ++i) cts.push_back(scheme.encrypt_one(kp.pub, rng));

  vector_msg m;
  m.round_id = 11;
  const std::vector<byte_buffer> encoded = scheme.encode_batch(cts);
  m.ciphertexts = views_of(encoded);
  const net::message wire = encode_vector(2, 3, msg_type::mix_pass, m);
  // Reserved at its exact size, never regrown.
  EXPECT_EQ(wire.payload.capacity(), wire.payload.size());
  const vector_msg back = decode_vector(wire);
  EXPECT_EQ(back.round_id, 11u);
  // The decoded ciphertexts are views into the payload.
  ASSERT_EQ(back.ciphertexts.size(), cts.size());
  EXPECT_GE(back.ciphertexts.front().data(), wire.payload.data());
  EXPECT_LE(back.ciphertexts.back().data() + back.ciphertexts.back().size(),
            wire.payload.data() + wire.payload.size());
  const auto decoded = scheme.decode_batch(back.ciphertexts);
  ASSERT_EQ(decoded.size(), cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    EXPECT_TRUE(group->equal(scheme.decrypt(kp.secret, decoded[i]),
                             scheme.decrypt(kp.secret, cts[i])));
  }
}

TEST(PscMessagesTest, ConfigureRoundTrips) {
  cp_configure_msg cp;
  cp.round_id = 5;
  cp.bins = 4096;
  cp.noise_bits = 100;
  cp.group = 1;
  cp.cp_chain = {1, 2, 3};
  const cp_configure_msg cp_back = decode_cp_configure(encode_cp_configure(0, 1, cp));
  EXPECT_EQ(cp_back.bins, 4096u);
  EXPECT_EQ(cp_back.cp_chain, cp.cp_chain);

  dc_configure_msg dc;
  dc.round_id = 5;
  dc.bins = 4096;
  dc.group = 1;
  dc.joint_pk = {1, 2, 3, 4, 5, 6, 7, 8};
  const dc_configure_msg dc_back = decode_dc_configure(encode_dc_configure(0, 4, dc));
  EXPECT_EQ(dc_back.joint_pk, dc.joint_pk);
}

}  // namespace
}  // namespace tormet::psc
