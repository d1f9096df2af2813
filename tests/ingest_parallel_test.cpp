// Parallel-ingest tests: the {shards} x {workers} differential matrix the
// event_sink contract promises — a DC's report bytes are a function of the
// event stream alone, never of how the stream was partitioned across
// ingest shards or which pool workers executed them. The baseline for
// every combination is the strictest one: observe() per event through the
// polymorphic core::event_sink surface, serial, single shard. Also pins
// the between-rounds-only reconfiguration guard in both protocols and
// soaks the threaded path (the ASan/TSan CI legs run this binary).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/core/event_sink.h"
#include "src/core/instruments.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/crypto/secure_rng.h"
#include "src/crypto/sha256.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/psc/data_collector.h"
#include "src/psc/messages.h"
#include "src/tor/trace_socket.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_gen.h"

namespace tormet {
namespace {

[[nodiscard]] std::vector<tor::event> zipf_events(std::uint64_t n,
                                                  std::uint64_t seed) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = n;
  params.seed = seed;
  return workload::generate_trace_events(params).front();
}

[[nodiscard]] std::vector<std::size_t> shard_matrix() {
  return {1, 2, 8,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

/// Worker counts per the issue's matrix; 0 is the serial no-pool baseline
/// axis value exercised by the reference run itself.
[[nodiscard]] std::vector<std::size_t> worker_matrix() { return {1, 2, 4}; }

// -- PrivCount ---------------------------------------------------------------

/// Installs every registered instrument on `dc`. The instrument objects are
/// built once and shared by every DC of the test binary, as in a
/// deployment; tld_histogram and domain_sets read their shared lookup maps
/// from every shard worker.
void install_registered_instruments(privcount::data_collector& dc) {
  static const std::vector<privcount::data_collector::instrument> all = [] {
    std::vector<privcount::data_collector::instrument> out;
    for (const auto& name : core::instrument_names()) {
      out.push_back(core::instrument_by_name(name));
    }
    return out;
  }();
  for (const auto& ins : all) dc.add_instrument(ins);
}

/// Round 1's configure message for every registered instrument's counters.
[[nodiscard]] privcount::configure_msg registered_round_config() {
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& instrument : core::instrument_names()) {
    for (const auto& spec : core::default_specs_for(instrument)) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(1.5);
    }
  }
  cfg.noise_weight = 1.0;
  return cfg;
}

/// Runs one PrivCount collection round over `events` with the given ingest
/// plane and returns the blinded report's wire payload. `chunk` == 0 feeds
/// through observe() per event via the core::event_sink interface; any
/// other value feeds ingest() spans of that size. A fixed rng seed makes
/// noise + blinding identical across calls, so the payloads are comparable
/// byte for byte.
[[nodiscard]] std::vector<std::uint8_t> privcount_report_bytes(
    const std::vector<tor::event>& events, std::size_t shards,
    std::size_t workers, std::size_t chunk) {
  net::inproc_net bus;
  std::vector<std::uint8_t> report;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
      report = m.payload;
    }
  });
  crypto::deterministic_rng rng{4242};
  privcount::data_collector dc{1, 0, bus, rng};
  install_registered_instruments(dc);
  dc.set_shards(shards);
  if (workers > 0) {
    dc.set_thread_pool(std::make_shared<util::thread_pool>(workers));
  }

  dc.handle_message(
      privcount::encode_configure(0, 1, registered_round_config()));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));

  core::event_sink& sink = dc;
  if (chunk == 0) {
    for (const tor::event& ev : events) sink.observe(ev);
  } else {
    for (std::size_t i = 0; i < events.size(); i += chunk) {
      sink.ingest(events.data() + i, std::min(chunk, events.size() - i));
    }
  }
  EXPECT_EQ(sink.events_observed(), events.size());

  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  bus.run_until_quiescent();
  EXPECT_FALSE(report.empty());
  return report;
}

TEST(ParallelIngestTest, PrivcountShardWorkerMatrixIsByteIdentical) {
  const std::vector<tor::event> events = zipf_events(20'000, 17);
  // Strictest baseline: per-event observe() through the event_sink
  // interface, one shard, no pool.
  const std::vector<std::uint8_t> reference =
      privcount_report_bytes(events, 1, 0, 0);
  for (const std::size_t shards : shard_matrix()) {
    for (const std::size_t workers : worker_matrix()) {
      EXPECT_EQ(privcount_report_bytes(events, shards, workers, 4096),
                reference)
          << "report diverged at " << shards << " shards x " << workers
          << " workers";
    }
    // Serial sharded path stays pinned too (no pool attached).
    EXPECT_EQ(privcount_report_bytes(events, shards, 0, 4096), reference)
        << "serial report diverged at " << shards << " shards";
  }
  // Span boundaries are invisible: odd chunk sizes cannot change bytes.
  EXPECT_EQ(privcount_report_bytes(events, 8, 4, 777), reference);
}

TEST(ParallelIngestTest, PrivcountShardChangeBetweenConfigureAndStartIsSafe) {
  // Regression: set_shards between configure (which sizes the slabs) and
  // start_collection used to leave the slab stride stale — increments for
  // shard s >= 1 landed out of bounds. The re-size on set_shards makes the
  // late change equivalent to having configured with that count.
  const std::vector<tor::event> events = zipf_events(5'000, 23);
  const std::vector<std::uint8_t> reference =
      privcount_report_bytes(events, 8, 2, 1024);

  net::inproc_net bus;
  std::vector<std::uint8_t> report;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
      report = m.payload;
    }
  });
  crypto::deterministic_rng rng{4242};
  privcount::data_collector dc{1, 0, bus, rng};
  install_registered_instruments(dc);
  dc.set_shards(2);
  dc.set_thread_pool(std::make_shared<util::thread_pool>(2));
  dc.handle_message(
      privcount::encode_configure(0, 1, registered_round_config()));
  dc.set_shards(8);  // after configure, before start: must re-size slabs
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));
  for (std::size_t i = 0; i < events.size(); i += 1024) {
    dc.ingest(events.data() + i, std::min<std::size_t>(1024, events.size() - i));
  }
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  bus.run_until_quiescent();
  EXPECT_EQ(report, reference);
}

TEST(ParallelIngestTest, PrivcountRejectsIngestPlaneChangesWhileCollecting) {
  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{7};
  privcount::data_collector dc{1, 0, bus, rng};
  dc.add_instrument(core::instrument_by_name("stream_taxonomy"));
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
    cfg.counter_names.push_back(spec.name);
    cfg.sigmas.push_back(0.0);
  }
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));
  ASSERT_TRUE(dc.collecting());
  EXPECT_THROW(dc.set_shards(4), precondition_error);
  EXPECT_THROW(dc.set_thread_pool(std::make_shared<util::thread_pool>(2)),
               precondition_error);
  // Between rounds the knobs open up again.
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  EXPECT_FALSE(dc.collecting());
  dc.set_shards(4);
  dc.set_thread_pool(nullptr);
  EXPECT_EQ(dc.shards(), 4u);
}

// -- PSC ---------------------------------------------------------------------

/// Runs one PSC collection over `events` and returns the encrypted table's
/// wire payload. Same comparability argument as the PrivCount helper: a
/// fixed rng seed pins table-init and insert randomness, so any divergence
/// is the partition leaking into the bytes.
[[nodiscard]] std::vector<std::uint8_t> psc_table_bytes(
    crypto::group_backend backend, const std::vector<tor::event>& events,
    std::uint64_t bins, std::size_t shards, std::size_t workers,
    std::size_t chunk) {
  net::inproc_net bus;
  std::vector<std::uint8_t> table;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(psc::msg_type::dc_vector)) {
      table = m.payload;
    }
  });
  crypto::deterministic_rng rng{999};
  psc::data_collector dc{1, 0, bus, rng};
  dc.set_extractor(core::extractor_by_name("primary_sld"));
  dc.set_shards(shards);
  if (workers > 0) {
    dc.set_thread_pool(std::make_shared<util::thread_pool>(workers));
  }

  const std::shared_ptr<const crypto::group> group = crypto::make_group(backend);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);
  psc::dc_configure_msg cfg;
  cfg.round_id = 1;
  cfg.bins = bins;
  cfg.group = static_cast<std::uint8_t>(backend);
  cfg.joint_pk = group->encode(kp.pub);
  dc.handle_message(psc::encode_dc_configure(0, 1, cfg));

  core::event_sink& sink = dc;
  if (chunk == 0) {
    for (const tor::event& ev : events) sink.observe(ev);
  } else {
    for (std::size_t i = 0; i < events.size(); i += chunk) {
      sink.ingest(events.data() + i, std::min(chunk, events.size() - i));
    }
  }
  EXPECT_EQ(sink.events_observed(), events.size());

  dc.handle_message(psc::encode_report_request(0, 1, 1));
  bus.run_until_quiescent();
  EXPECT_FALSE(table.empty());
  return table;
}

TEST(ParallelIngestTest, PscToyShardWorkerMatrixIsByteIdentical) {
  const std::vector<tor::event> events = zipf_events(4'000, 29);
  const std::vector<std::uint8_t> reference =
      psc_table_bytes(crypto::group_backend::toy, events, 256, 1, 0, 0);
  for (const std::size_t shards : shard_matrix()) {
    for (const std::size_t workers : worker_matrix()) {
      EXPECT_EQ(psc_table_bytes(crypto::group_backend::toy, events, 256,
                                shards, workers, 1024),
                reference)
          << "table diverged at " << shards << " shards x " << workers
          << " workers";
    }
    EXPECT_EQ(
        psc_table_bytes(crypto::group_backend::toy, events, 256, shards, 0, 1024),
        reference)
        << "serial table diverged at " << shards << " shards";
  }
}

TEST(ParallelIngestTest, PscP256ShardWorkerMatrixIsByteIdentical) {
  // The production backend: parallel seeded inserts must be byte-stable on
  // real EC ciphertexts (thread_local scratch, comb tables), not just the
  // toy group. Smaller stream — every insert is a real encryption.
  const std::vector<tor::event> events = zipf_events(600, 31);
  const std::vector<std::uint8_t> reference =
      psc_table_bytes(crypto::group_backend::p256, events, 64, 1, 0, 0);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t workers : worker_matrix()) {
      EXPECT_EQ(psc_table_bytes(crypto::group_backend::p256, events, 64,
                                shards, workers, 256),
                reference)
          << "table diverged at " << shards << " shards x " << workers
          << " workers";
    }
  }
}

TEST(ParallelIngestTest, PscTableKnownAnswerDigests) {
  // Two ingest() calls on a 3-worker pool over a zipf stream: items repeat
  // within and across the calls, and 64 bins make distinct items collide.
  // The digests were recorded when every insert ran on its own, so a
  // change to how a DC schedules, batches or skips inserts must keep them.
  const std::vector<tor::event> events = zipf_events(600, 43);
  const auto digest = [&](crypto::group_backend backend) {
    const std::vector<std::uint8_t> table =
        psc_table_bytes(backend, events, 64, 1, 3, events.size() / 2 + 1);
    const crypto::sha256_digest d = crypto::sha256(table);
    return to_hex(byte_view{d.data(), d.size()});
  };
  EXPECT_EQ(digest(crypto::group_backend::toy),
            "b0be4e294b96db7f20ae42421fac4ad9664aa105224fadc2b23827e70ef4182b");
  EXPECT_EQ(digest(crypto::group_backend::p256),
            "62dbeb3e05bc77a5da8c214661c103da46cb58f95275a6ebe920a4e2a33c3c7b");
}

TEST(ParallelIngestTest, PscRejectsIngestPlaneChangesWhileTableIsLive) {
  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{11};
  psc::data_collector dc{1, 0, bus, rng};
  dc.set_extractor(core::extractor_by_name("primary_sld"));
  dc.set_shards(2);  // open before configure

  const auto group = crypto::make_group(crypto::group_backend::toy);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);
  psc::dc_configure_msg cfg;
  cfg.round_id = 1;
  cfg.bins = 64;
  cfg.group = static_cast<std::uint8_t>(crypto::group_backend::toy);
  cfg.joint_pk = group->encode(kp.pub);
  dc.handle_message(psc::encode_dc_configure(0, 1, cfg));
  ASSERT_TRUE(dc.configured());
  EXPECT_THROW(dc.set_shards(4), precondition_error);
  EXPECT_THROW(dc.set_thread_pool(std::make_shared<util::thread_pool>(2)),
               precondition_error);
  // Shipping the table closes the round; the knobs open up again.
  dc.handle_message(psc::encode_report_request(0, 1, 1));
  bus.run_until_quiescent();
  EXPECT_FALSE(dc.configured());
  dc.set_shards(4);
  dc.set_thread_pool(nullptr);
  EXPECT_EQ(dc.shards(), 4u);
}

// -- threaded soak -----------------------------------------------------------

TEST(ParallelIngestTest, ThreadedIngestSoakStaysConsistentAcrossRounds) {
  // Multi-round churn over the parallel path with maximum hardware
  // parallelism — the sanitizer CI legs (ASan and TSan) run this binary,
  // so any cross-worker race in bucketing, slab writes, or seeded inserts
  // surfaces here.
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::vector<tor::event> events = zipf_events(60'000, 37);
  std::vector<std::uint8_t> first;
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::uint8_t> report =
        privcount_report_bytes(events, 2 * hw, hw, 913);
    if (first.empty()) {
      first = report;
    } else {
      EXPECT_EQ(report, first) << "soak round " << round << " diverged";
    }
  }
  const std::vector<std::uint8_t> psc_first =
      psc_table_bytes(crypto::group_backend::toy, events, 512, 2 * hw, hw, 913);
  EXPECT_EQ(
      psc_table_bytes(crypto::group_backend::toy, events, 512, 3, 2, 4096),
      psc_first);
}

// -- flash-crowd socket-feeder stress ----------------------------------------

/// A loopback port that is free right now (bind 0, read it back, release).
[[nodiscard]] std::uint16_t free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  expects(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  expects(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
          "bind() failed");
  socklen_t len = sizeof addr;
  expects(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
          "getsockname() failed");
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(ParallelIngestTest, FlashCrowdSurgeThroughSocketFeederLosesNothing) {
  // A full flash-crowd surge day streamed live through the trace socket
  // into a sharded, threaded DC. The stream is far larger than the
  // receiver's 64 KiB recv chunk and any default kernel socket buffer, so
  // the feeder's sends block on the receiver's ingest rate (the bounded
  // send queue engaging) — and despite that backpressure churn, every
  // single event must arrive and the report bytes must equal the serial
  // direct-ingest baseline.
  workload::scenario_params params;
  params.name = "flash_crowd";
  params.dcs = 1;
  params.scale = 1.0;
  params.events = 4'000;
  params.seed = 13;
  params.days = 1;
  const std::vector<tor::event> events =
      workload::generate_scenario_events(params).front();
  ASSERT_GT(events.size(), 30'000u);  // surge volume dwarfs socket buffers

  const std::vector<std::uint8_t> reference =
      privcount_report_bytes(events, 1, 0, 0);

  const std::uint16_t port = free_loopback_port();
  tor::event_socket_source source{port, 30'000};
  std::size_t sent = 0;
  std::thread feeder{[&] {
    sent = tor::stream_events_to_socket("127.0.0.1", port, events);
  }};

  // Receiving DC: same round wiring as privcount_report_bytes, but fed
  // from the live socket in spans, concurrently with the feeder.
  net::inproc_net bus;
  std::vector<std::uint8_t> report;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
      report = m.payload;
    }
  });
  crypto::deterministic_rng rng{4242};
  privcount::data_collector dc{1, 0, bus, rng};
  install_registered_instruments(dc);
  dc.set_shards(8);
  dc.set_thread_pool(std::make_shared<util::thread_pool>(4));

  dc.handle_message(
      privcount::encode_configure(0, 1, registered_round_config()));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));

  core::event_sink& sink = dc;
  std::vector<tor::event> block;
  constexpr std::size_t k_block = 2'048;
  block.reserve(k_block);
  std::size_t received = 0;
  for (;;) {
    std::optional<tor::event> ev = source.next();
    if (ev.has_value()) {
      block.push_back(*std::move(ev));
      ++received;
    }
    if (block.size() == k_block || (!ev.has_value() && !block.empty())) {
      sink.ingest(block.data(), block.size());
      block.clear();
    }
    if (!ev.has_value()) break;
  }
  feeder.join();

  EXPECT_EQ(sent, events.size());
  EXPECT_EQ(received, events.size()) << "events lost in the surge";
  EXPECT_EQ(sink.events_observed(), events.size());

  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  bus.run_until_quiescent();
  EXPECT_EQ(report, reference)
      << "socket-fed sharded report diverged from direct serial ingest";
}

}  // namespace
}  // namespace tormet
