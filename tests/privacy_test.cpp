// Privacy-property tests: statistical checks of the protection claims the
// protocols make about *state an adversary could seize*, plus a PSC round
// over real TCP sockets.
//
//  * PrivCount: a seized DC's counter is `noise − Σ blinds` — with at least
//    one honest SK, the value is uniformly random on Z_{2^64}.
//  * PSC: a seized DC's table is ElGamal ciphertexts under the CPs' joint
//    key — identical item sets produce unlinkable tables, and inserts
//    rerandomize rather than reveal.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "src/core/instruments.h"
#include "src/crypto/secret_sharing.h"
#include "src/net/inproc.h"
#include "src/net/tcp.h"
#include "src/psc/deployment.h"
#include "src/psc/oblivious_set.h"
#include "src/privcount/deployment.h"
#include "src/tor/network.h"

namespace tormet {
namespace {

TEST(PrivacyTest, BlindedSharesAreBitUniform) {
  // Any proper subset of additive shares must look uniform: check bit
  // balance of the first share across many sharings of the SAME value.
  crypto::deterministic_rng rng{11};
  constexpr int trials = 4000;
  int bit_counts[64] = {};
  for (int t = 0; t < trials; ++t) {
    const auto shares = crypto::additive_shares(/*value=*/42, 3, rng);
    for (int b = 0; b < 64; ++b) {
      bit_counts[b] += static_cast<int>((shares[0] >> b) & 1);
    }
  }
  for (int b = 0; b < 64; ++b) {
    // 6-sigma band around trials/2 for a fair bit.
    EXPECT_NEAR(bit_counts[b], trials / 2, 6 * std::sqrt(trials) / 2)
        << "bit " << b;
  }
}

TEST(PrivacyTest, DcCounterInitializationLooksUniform) {
  // Reconstruct what a DC's in-memory counter would be after blinding:
  // noise + last blind (where blinds sum to zero). The kept blind is
  // uniform, so the counter must be too — even though the true count is 0
  // and the noise is small. Bucket the top byte and sanity-check spread.
  crypto::deterministic_rng rng{13};
  constexpr int trials = 8000;
  int buckets[16] = {};
  for (int t = 0; t < trials; ++t) {
    const auto blinds = crypto::additive_shares(0, 4, rng);
    const std::uint64_t counter = static_cast<std::uint64_t>(7) + blinds.back();
    ++buckets[counter >> 60];
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(buckets[i], trials / 16, 6 * std::sqrt(trials / 16.0) + 10)
        << "bucket " << i;
  }
}

TEST(PrivacyTest, ObliviousTablesAreUnlinkableAcrossDcs) {
  // Two DCs with IDENTICAL item sets produce tables with no ciphertext in
  // common (fresh randomness everywhere) — a seizure of both reveals no
  // correlation without the CP keys.
  crypto::deterministic_rng rng{17};
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  const auto kp = scheme.generate_keypair(rng);

  psc::oblivious_set a{engine, kp.pub, 128, rng};
  psc::oblivious_set b{engine, kp.pub, 128, rng};
  for (int i = 0; i < 40; ++i) {
    const std::string item = "item" + std::to_string(i);
    a.insert(as_bytes(item), rng);
    b.insert(as_bytes(item), rng);
  }
  std::set<std::string> enc_a;
  for (const auto& ct : a.slots()) enc_a.insert(to_hex(scheme.encode(ct)));
  for (const auto& ct : b.slots()) {
    EXPECT_FALSE(enc_a.contains(to_hex(scheme.encode(ct))));
  }
}

TEST(PrivacyTest, InsertRerandomizesTheBin) {
  // Observing the table before and after an insert shows a changed bin but
  // not whether the bin was previously set (fresh ciphertext either way).
  crypto::deterministic_rng rng{19};
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  const auto kp = scheme.generate_keypair(rng);

  psc::oblivious_set set{engine, kp.pub, 64, rng};
  const std::size_t bin = set.bin_of(as_bytes("x"));
  const byte_buffer before = scheme.encode(set.slots()[bin]);
  set.insert(as_bytes("x"), rng);
  const byte_buffer after_first = scheme.encode(set.slots()[bin]);
  set.insert(as_bytes("x"), rng);
  const byte_buffer after_second = scheme.encode(set.slots()[bin]);
  EXPECT_NE(before, after_first);
  EXPECT_NE(after_first, after_second);  // repeat insert looks like a fresh one
}

TEST(PrivacyTest, PublishedNoiseHidesSmallDifferences) {
  // End-to-end DP sanity: two runs whose true counts differ by exactly the
  // sensitivity produce outputs whose difference is dominated by noise
  // (|Δoutput| is frequently larger than the true difference).
  tor::consensus_params params;
  params.num_relays = 200;
  params.seed = 23;

  const auto run_with_count = [&](int connections, std::uint64_t seed) {
    tor::network net{tor::make_synthetic_consensus(params), 99};
    net::inproc_net bus;
    privcount::deployment_config cfg;
    const auto guards = net.net().eligible(tor::position::guard);
    cfg.measured_relays.assign(guards.begin(), guards.begin() + 4);
    cfg.rng_seed = seed;
    privcount::deployment dep{bus, cfg};
    dep.add_instrument(core::instrument_entry_totals());
    dep.attach(net);
    const auto results = dep.run_round(
        {{"entry/connections", /*sensitivity=*/12.0, 100.0}}, [&] {
          for (int i = 0; i < connections; ++i) {
            tor::client_profile p;
            p.ip = static_cast<std::uint32_t>(i);
            p.promiscuous = true;
            const tor::client_id c = net.add_client(p);
            net.connect_once(c, sim_time{0});
          }
        });
    return static_cast<double>(results[0].value);
  };

  // Adjacent-ish inputs: counts differing by the sensitivity.
  int indistinguishable = 0;
  constexpr int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const double a = run_with_count(60, 1000 + static_cast<std::uint64_t>(t));
    const double b = run_with_count(72, 2000 + static_cast<std::uint64_t>(t));
    // The noise scale (sigma for D=12, eps=0.3) is ~400: most trials the
    // noisy outputs cannot be ordered by their true counts.
    if (b < a) ++indistinguishable;
  }
  EXPECT_GT(indistinguishable, 1);
  EXPECT_LT(indistinguishable, trials - 1);
}

TEST(PrivacyTest, PscRoundOverRealTcpSockets) {
  tor::consensus_params params;
  params.num_relays = 200;
  params.seed = 29;
  tor::network net{tor::make_synthetic_consensus(params), 7};

  net::tcp_net bus;
  psc::deployment_config cfg;
  const auto guards = net.net().eligible(tor::position::guard);
  cfg.measured_relays.assign(guards.begin(), guards.begin() + 3);
  cfg.round.bins = 256;
  cfg.round.group = crypto::group_backend::toy;
  cfg.round.noise_enabled = false;
  psc::deployment dep{bus, cfg};
  dep.set_extractor(core::extract_client_ip());
  dep.attach(net);

  const psc::round_outcome out = dep.run_round([&] {
    for (int i = 0; i < 40; ++i) {
      tor::client_profile p;
      p.ip = static_cast<std::uint32_t>(i);
      p.promiscuous = true;  // every measured relay sees every IP
      const tor::client_id c = net.add_client(p);
      net.connect_to_guards(c, sim_time{0});
    }
  });
  EXPECT_NEAR(out.estimate.cardinality, 40.0, 8.0);
}

}  // namespace
}  // namespace tormet
