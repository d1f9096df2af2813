// Differential tests across the two group backends and the serial/pooled
// engine paths. The protocol logic is backend-agnostic: for the same
// deployment seed, a full PSC round must walk the same message sequence
// with the same vector arities and produce the same raw count on toy62 and
// p256 (the encodings differ — element widths differ — but nothing about
// the protocol's shape or its result may). Within one backend the stronger
// property holds: the pooled engine run is byte-identical to the inline
// run, because shard boundaries and per-shard RNG streams never depend on
// the worker count. A last test pins the CP chain's shape and keys.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/net/inproc.h"
#include "src/psc/deployment.h"
#include "src/psc/messages.h"
#include "src/tor/network.h"

namespace tormet::psc {
namespace {

/// Transport wrapper that records every message send: the full payload (for
/// within-backend byte comparison) plus the decoded ciphertext count of
/// vector messages (for cross-backend shape comparison).
class recording_net final : public net::transport {
 public:
  struct entry {
    std::uint16_t type = 0;
    net::node_id from = 0;
    net::node_id to = 0;
    std::size_t vector_len = 0;  // 0 for non-vector messages
    byte_buffer payload;
  };

  void register_node(net::node_id id, net::message_handler handler) override {
    inner_.register_node(id, std::move(handler));
  }

  void send(net::message msg) override {
    entry e;
    e.type = msg.type;
    e.from = msg.from;
    e.to = msg.to;
    e.payload = msg.payload;
    switch (static_cast<msg_type>(msg.type)) {
      case msg_type::dc_vector:
      case msg_type::mix_pass:
      case msg_type::final_vector:
        e.vector_len = decode_vector(msg).ciphertexts.size();
        break;
      default:
        break;
    }
    trace_.push_back(std::move(e));
    inner_.send(std::move(msg));
  }

  std::size_t run_until_quiescent() override {
    return inner_.run_until_quiescent();
  }

  [[nodiscard]] const std::vector<entry>& trace() const noexcept {
    return trace_;
  }

 private:
  net::inproc_net inner_;
  std::vector<entry> trace_;
};

struct round_run {
  std::vector<recording_net::entry> trace;
  round_outcome outcome;
};

/// One fixed workload (60 client IPs, 40 distinct) through a full round.
/// Cross-backend comparisons run noiseless: the two backends consume the
/// session RNG at different rates (different rejection sampling), so noise
/// coin values — though not their count — would legitimately diverge.
[[nodiscard]] round_run run_round(crypto::group_backend backend,
                                  std::size_t worker_threads,
                                  bool noise = false, std::uint64_t bins = 128) {
  tor::consensus_params params;
  params.num_relays = 120;
  params.seed = 29;
  tor::network net{tor::make_synthetic_consensus(params), 19};
  const auto guards = net.net().eligible(tor::position::guard);

  recording_net bus;
  deployment_config cfg;
  cfg.num_computation_parties = 3;
  cfg.measured_relays.assign(guards.begin(), guards.begin() + 3);
  cfg.round.bins = bins;
  cfg.round.group = backend;
  cfg.round.noise_enabled = noise;
  cfg.round.sensitivity = 1.0;
  cfg.round.privacy = {2.0, 1e-4};  // ~20 noise bits/CP: fast on p256
  cfg.rng_seed = 777;
  cfg.worker_threads = worker_threads;
  deployment dep{bus, cfg};
  dep.set_extractor([](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return std::to_string(c->client_ip);
    }
    return std::nullopt;
  });
  dep.attach(net);

  round_run run;
  run.outcome = dep.run_round([&] {
    for (int i = 0; i < 60; ++i) {
      tor::client_profile p;
      p.ip = static_cast<std::uint32_t>(5000 + i % 40);
      p.promiscuous = true;  // every DC sees every IP: workload is
                             // independent of guard assignment
      const tor::client_id c = net.add_client(p);
      net.connect_to_guards(c, sim_time{0});
    }
  });
  run.trace = bus.trace();
  return run;
}

void expect_same_shape(const round_run& a, const round_run& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].type, b.trace[i].type) << "message " << i;
    EXPECT_EQ(a.trace[i].from, b.trace[i].from) << "message " << i;
    EXPECT_EQ(a.trace[i].to, b.trace[i].to) << "message " << i;
    EXPECT_EQ(a.trace[i].vector_len, b.trace[i].vector_len) << "message " << i;
  }
  EXPECT_EQ(a.outcome.raw_count, b.outcome.raw_count);
  EXPECT_EQ(a.outcome.total_noise_bits, b.outcome.total_noise_bits);
  EXPECT_DOUBLE_EQ(a.outcome.estimate.cardinality, b.outcome.estimate.cardinality);
}

void expect_identical_bytes(const round_run& a, const round_run& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].payload, b.trace[i].payload) << "message " << i;
  }
  EXPECT_EQ(a.outcome.raw_count, b.outcome.raw_count);
}

TEST(BackendDifferentialTest, ToyAndP256ProduceTheSameProtocolTranscript) {
  const round_run toy_serial = run_round(crypto::group_backend::toy, 0);
  const round_run p256_serial = run_round(crypto::group_backend::p256, 0);
  expect_same_shape(toy_serial, p256_serial);

  const round_run toy_pooled = run_round(crypto::group_backend::toy, 4);
  const round_run p256_pooled = run_round(crypto::group_backend::p256, 4);
  expect_same_shape(toy_pooled, p256_pooled);
}

TEST(BackendDifferentialTest, PooledRunIsByteIdenticalToSerialRun) {
  // Same backend, same seed, noise enabled: worker count must not leak into
  // the transcript at all (the engine's determinism contract, end to end).
  // 1100 bins span three 512-element engine shards, so every table, mix
  // and decrypt vector is split across the pool.
  for (const auto backend :
       {crypto::group_backend::toy, crypto::group_backend::p256}) {
    const round_run serial = run_round(backend, 0, true, 1100);
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)) +
                   ", " + std::to_string(workers) + " workers");
      expect_identical_bytes(serial, run_round(backend, workers, true, 1100));
    }
  }
}

TEST(BackendDifferentialTest, PooledP256MixPassKeepsItsKnownDigest) {
  // The vector CP 1 forwards holds its strip of the TS's combined tables,
  // its noise and its rerandomization, each run on a 3-worker pool. The
  // digest was recorded when every randomized pass multiplied one chunk per
  // 512-element shard and every point was encoded on its own.
  const round_run run = run_round(crypto::group_backend::p256, 3, true, 64);
  std::vector<std::string> digests;
  for (const auto& e : run.trace) {
    if (static_cast<msg_type>(e.type) != msg_type::mix_pass || e.from != 1) {
      continue;
    }
    const crypto::sha256_digest d = crypto::sha256(e.payload);
    digests.push_back(to_hex(byte_view{d.data(), d.size()}));
  }
  EXPECT_EQ(digests,
            std::vector<std::string>{
                "17af2cd924b21b7041524256d554bcd117b85267952537f3896927fbfffbafcc"});
}

/// The chain's shape and keys on both backends. After the DC tables each
/// CP makes one pass: TS→CP1, CP1→CP2 and CP2→CP3 carry mix_pass and
/// CP3→TS carries final_vector, and no decrypt pass is ever sent. The
/// vector a CP receives, and so strips, holds the bins and the noise of
/// the CPs before it. Each CP is sent its onward key, the sum of the later
/// CPs' recorded key shares (the identity for the last), and each DC the
/// sum of every share.
TEST(PscChainTest, OnePassPerCpUnderTheLaterCpsKeys) {
  using pass = std::tuple<net::node_id, net::node_id, msg_type, std::size_t>;
  for (const auto backend :
       {crypto::group_backend::toy, crypto::group_backend::p256}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    const round_run run = run_round(backend, 0, true);
    const auto group = crypto::make_group(backend);
    // Node ids: TS=0, CPs 1-3, DCs 4-6.
    std::map<net::node_id, crypto::group_element> shares;
    std::map<net::node_id, byte_buffer> keys;
    std::vector<pass> passes;
    for (const auto& e : run.trace) {
      const net::message msg{e.from, e.to, e.type, e.payload};
      const auto type = static_cast<msg_type>(e.type);
      EXPECT_NE(type, msg_type::decrypt_pass);
      if (type == msg_type::pk_share) {
        shares[e.from] = group->decode(decode_pk_share(msg).pk);
      } else if (type == msg_type::dc_configure) {
        keys[e.to] = decode_dc_configure(msg).joint_pk;
      } else if (type == msg_type::dc_vector) {
        passes.clear();  // only the passes after the last DC table count
      } else if (e.vector_len > 0) {
        passes.emplace_back(e.from, e.to, type, e.vector_len);
      }
    }
    const std::size_t bins = run.outcome.bins;
    const std::size_t noise = run.outcome.total_noise_bits / 3;
    ASSERT_GT(noise, 0u);
    const std::vector<pass> chain = {
        {0, 1, msg_type::mix_pass, bins},
        {1, 2, msg_type::mix_pass, bins + noise},
        {2, 3, msg_type::mix_pass, bins + 2 * noise},
        {3, 0, msg_type::final_vector, bins + 3 * noise}};
    EXPECT_EQ(passes, chain);

    const crypto::elgamal scheme{group};
    ASSERT_EQ(shares.size(), 3u);
    const auto sum_of_shares_from = [&](net::node_id first) {
      std::vector<crypto::group_element> later;
      for (net::node_id cp = first; cp <= 3; ++cp) later.push_back(shares.at(cp));
      return later.empty() ? group->identity()
                           : scheme.combine_public_keys(later);
    };
    for (net::node_id cp = 1; cp <= 3; ++cp) {
      EXPECT_EQ(keys.at(cp), group->encode(sum_of_shares_from(cp + 1)))
          << "CP " << cp;
    }
    for (net::node_id dc = 4; dc <= 6; ++dc) {
      EXPECT_EQ(keys.at(dc), group->encode(sum_of_shares_from(1))) << "DC " << dc;
    }
  }
}

}  // namespace
}  // namespace tormet::psc
