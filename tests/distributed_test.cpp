// Distributed-deployment tests: plan (de)serialization, orchestrator port
// assignment, and the end-to-end guarantee the subsystem exists for — a
// multi-process protocol round over real fork/exec'd tormet_node processes
// and TCP sockets produces a tally byte-identical to the in-process round
// with the same seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>
#include <variant>

#include "src/cli/deployment_plan.h"
#include "src/cli/node_runner.h"
#include "src/cli/orchestrator.h"
#include "src/core/instruments.h"
#include "src/tor/trace_file.h"
#include "src/tor/trace_socket.h"
#include "src/workload/trace_gen.h"
#include "tests/node_process.h"

namespace tormet::cli {
namespace {

/// tormet_node binary: ctest exports TORMET_NODE_BIN; fall back to the
/// binary next to this test executable (both live in the build dir).
TEST(DeploymentPlanTest, RoundTripsThroughSerialization) {
  deployment_plan plan = make_psc_plan(4, 3, 2048);
  plan.rng_seed = 99;
  plan.items_per_dc = 13;
  plan.shared_items = 5;
  plan.round.group = crypto::group_backend::toy;
  plan.round.sensitivity = 4.0;
  plan.round.privacy.epsilon = 0.25;
  plan.round.noise_enabled = false;
  plan.tally_path = "/tmp/t.out";
  plan.round_deadline_ms = 5000;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9000 + i);
  }

  const deployment_plan back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(serialize_plan(back), serialize_plan(plan));
  EXPECT_EQ(back.rng_seed, 99u);
  EXPECT_EQ(back.round.bins, 2048u);
  EXPECT_EQ(back.round.sensitivity, 4.0);
  EXPECT_FALSE(back.round.noise_enabled);
  EXPECT_EQ(back.nodes.size(), 8u);
  EXPECT_EQ(back.node(0).role, node_role::psc_ts);
  EXPECT_EQ(back.node(7).port, 9007);
  EXPECT_EQ(back.tally_server_id(), 0u);
}

TEST(DeploymentPlanTest, PrivcountCountersRoundTrip) {
  deployment_plan plan = make_privcount_plan(
      2, 3, {{"entry/connections", 12.0, 100.0}, {"exit/streams", 20.0, 1e6}});
  assign_free_ports(plan);  // parse rejects port-0 nodes by design
  const deployment_plan back = parse_plan(serialize_plan(plan));
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[1].name, "exit/streams");
  EXPECT_EQ(back.counters[1].expected_value, 1e6);
  EXPECT_EQ(back.ids_with(node_role::privcount_sk).size(), 3u);
}

TEST(DeploymentPlanTest, MalformedInputIsRejectedWithLineNumbers) {
  EXPECT_THROW(parse_plan("not-a-plan\n"), precondition_error);
  EXPECT_THROW(parse_plan("tormet-plan-v1\nbogus_key 1\n"), precondition_error);
  EXPECT_THROW(parse_plan("tormet-plan-v1\nnode 0 psc_ts\n"), precondition_error);
  EXPECT_THROW(parse_plan("tormet-plan-v1\nprotocol psc\n"), precondition_error);
  // Hand-config footguns rejected at parse time, not as transport timeouts:
  EXPECT_THROW(parse_plan("tormet-plan-v1\nnode 0 psc_ts 127.0.0.1 0\n"),
               precondition_error);
  EXPECT_THROW(parse_plan("tormet-plan-v1\n"
                          "node 0 psc_ts 127.0.0.1 9000\n"
                          "node 0 psc_cp 127.0.0.1 9001\n"),
               precondition_error);
}

TEST(DeploymentPlanTest, RejectsBadNodeTopology) {
  // No tally server at all.
  EXPECT_THROW(parse_plan("tormet-plan-v1\n"
                          "node 0 psc_cp 127.0.0.1 9000\n"
                          "node 1 psc_dc 127.0.0.1 9001\n"),
               precondition_error);
  // Two tally servers.
  EXPECT_THROW(parse_plan("tormet-plan-v1\n"
                          "node 0 psc_ts 127.0.0.1 9000\n"
                          "node 1 psc_ts 127.0.0.1 9001\n"
                          "node 2 psc_dc 127.0.0.1 9002\n"),
               precondition_error);
  // A privcount plan needs counters.
  EXPECT_THROW(parse_plan("tormet-plan-v1\n"
                          "protocol privcount\n"
                          "node 0 privcount_ts 127.0.0.1 9000\n"
                          "node 1 privcount_dc 127.0.0.1 9001\n"),
               precondition_error);
}

TEST(DeploymentPlanTest, RejectsBadWorkloadSections) {
  const std::string base =
      "tormet-plan-v1\nnode 0 psc_ts 127.0.0.1 9000\n"
      "node 1 psc_cp 127.0.0.1 9001\nnode 2 psc_dc 127.0.0.1 9002\n";
  // Unknown workload kind / model; malformed values.
  EXPECT_THROW(parse_plan(base + "workload teleport\n"), precondition_error);
  EXPECT_THROW(parse_plan(base + "workload trace\n"), precondition_error);
  EXPECT_THROW(parse_plan(base + "workload generate nonsense 0.1 100 1\n"),
               precondition_error);
  EXPECT_THROW(parse_plan(base + "workload generate zipf 0 100 1\n"),
               precondition_error);
  // generate's fields are typed and bounded like scenario's and relays':
  // a wrapped negative event count, an astronomical scale and a days field
  // past a year each fail with the line that holds them.
  for (const char* bad : {"workload generate zipf 1e-4 -1 7\n",
                          "workload generate population 1e300 100 7\n",
                          "workload generate zipf 1e-4 100 7 99999999\n"}) {
    try {
      (void)parse_plan(base + bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string{e.what()}.find("plan line 5: "), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_plan(base + "workload socket 0\n"), precondition_error);
  EXPECT_THROW(parse_plan(base + "workload socket 99999\n"), precondition_error);
  // Unknown measurement names are rejected at parse time, not when a node
  // process fails mid-round.
  EXPECT_THROW(parse_plan(base + "psc_extractor magic_oracle\n"),
               precondition_error);
  EXPECT_THROW(parse_plan(base + "instrument quantum_counter\n"),
               precondition_error);
  // A privcount event workload without instruments would count nothing.
  EXPECT_THROW(
      parse_plan("tormet-plan-v1\nprotocol privcount\n"
                 "counter entry/connections 12 100\n"
                 "workload trace /tmp/traces\n"
                 "node 0 privcount_ts 127.0.0.1 9000\n"
                 "node 1 privcount_sk 127.0.0.1 9001\n"
                 "node 2 privcount_dc 127.0.0.1 9002\n"),
      precondition_error);
}

TEST(DeploymentPlanTest, WorkloadSectionsRoundTripThroughSerialization) {
  deployment_plan plan = make_psc_plan(2, 1, 256);
  assign_free_ports(plan);

  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = "/data/my traces/day-1";
  plan.psc_extractor = "published_address";
  deployment_plan back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.workload.kind, workload_kind::trace);
  EXPECT_EQ(back.workload.trace_dir, "/data/my traces/day-1");
  EXPECT_EQ(back.psc_extractor, "published_address");
  EXPECT_EQ(serialize_plan(back), serialize_plan(plan));

  plan.workload.kind = workload_kind::generate;
  plan.workload.model = "mixed";
  plan.workload.scale = 3e-5;
  plan.workload.events = 1234;
  plan.workload.gen_seed = 99;
  back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.workload.kind, workload_kind::generate);
  EXPECT_EQ(back.workload.model, "mixed");
  EXPECT_EQ(back.workload.scale, 3e-5);
  EXPECT_EQ(back.workload.events, 1234u);
  EXPECT_EQ(back.workload.gen_seed, 99u);

  plan.workload.kind = workload_kind::socket;
  plan.workload.event_port_base = 9100;
  back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.workload.kind, workload_kind::socket);
  EXPECT_EQ(back.workload.event_port_base, 9100);
}

TEST(DeploymentPlanTest, DcIndexFollowsPlanOrder) {
  deployment_plan plan = make_psc_plan(3, 2, 64);
  const auto dc_ids = plan.ids_with(node_role::psc_dc);
  for (std::size_t i = 0; i < dc_ids.size(); ++i) {
    EXPECT_EQ(dc_index_of(plan, dc_ids[i]), i);
  }
  EXPECT_THROW((void)dc_index_of(plan, plan.tally_server_id()),
               precondition_error);
}

TEST(DeploymentPlanTest, ItemsForDcAreDeterministicAndDisjoint) {
  deployment_plan plan = make_psc_plan(3, 1, 64);
  plan.items_per_dc = 10;
  plan.shared_items = 4;
  const auto dc_ids = plan.ids_with(node_role::psc_dc);
  std::set<std::string> unique_items;
  for (const auto id : dc_ids) {
    const auto items = items_for_dc(plan, id);
    ASSERT_EQ(items.size(), 14u);
    EXPECT_EQ(items, items_for_dc(plan, id));  // pure function of (plan, id)
    unique_items.insert(items.begin(), items.end());
  }
  // 3 DCs x 10 unique + 4 shared inserted by everyone.
  EXPECT_EQ(unique_items.size(), 34u);
}

TEST(OrchestratorTest, AssignsDistinctFreePorts) {
  deployment_plan plan = make_psc_plan(6, 3, 64);
  assign_free_ports(plan);
  std::set<std::uint16_t> ports;
  for (const auto& n : plan.nodes) {
    EXPECT_GT(n.port, 0);
    ports.insert(n.port);
  }
  EXPECT_EQ(ports.size(), plan.nodes.size());
}

// The acceptance check of the whole subsystem: a real multi-process round
// (fork/exec, TCP, chunked frames, DONE/ACK completion) must reproduce the
// deterministic in-process round bit for bit.
TEST(DistributedRoundTest, PscTallyIsByteIdenticalToInprocess) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  deployment_plan plan = make_psc_plan(4, 3, 1024);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 42;
  plan.items_per_dc = 25;
  plan.shared_items = 6;

  workdir_guard workdir;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 60'000);
  ASSERT_EQ(result.nodes.size(), 8u);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_FALSE(result.tally.empty());
  EXPECT_EQ(result.tally, run_reference_round(plan));
  // The tally is real: with noise on, raw_count >= the distinct item count.
  EXPECT_NE(result.tally.find("protocol psc"), std::string::npos);
}

TEST(DistributedRoundTest, PrivcountTallyIsByteIdenticalToInprocess) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  deployment_plan plan = make_privcount_plan(
      3, 2, {{"entry/connections", 12.0, 100.0}, {"entry/circuits", 651.0, 100.0}});
  plan.rng_seed = 7;

  workdir_guard workdir;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 60'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_EQ(result.tally, run_reference_round(plan));
  EXPECT_NE(result.tally.find("entry/circuits"), std::string::npos);
}

// The PR-4 acceptance check: a round driven by a *generated event trace* —
// DCs replaying per-relay trace files through their observe() pipeline
// across real processes — reproduces the in-process round bit for bit.
TEST(DistributedRoundTest, PscTraceRoundIsByteIdenticalToInprocess) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 3;
  gen.events = 600;
  gen.seed = 17;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(3, 2, 1024);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 21;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 60'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_EQ(result.tally, run_reference_round(plan));
  EXPECT_NE(result.tally.find("protocol psc"), std::string::npos);
}

TEST(DistributedRoundTest, PrivcountTraceRoundIsByteIdenticalToInprocess) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 500;
  gen.seed = 5;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_privcount_plan(
      2, 2, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 23;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 60'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_EQ(result.tally, run_reference_round(plan));
  EXPECT_NE(result.tally.find("streams/total"), std::string::npos);

  // The replayed events are real: with noise off the counters must equal a
  // direct count over the generated traces.
  plan.privcount_noise_enabled = false;
  const std::string noiseless = run_reference_round(plan);
  const auto events = workload::generate_trace_events(gen);
  std::size_t total_streams = 0;
  for (const auto& dc_events : events) total_streams += dc_events.size();
  EXPECT_NE(noiseless.find("counter streams/total " +
                           std::to_string(total_streams) + " "),
            std::string::npos)
      << noiseless;
}

// Socket ingestion: the same trace pushed through TCP event sockets by
// feeder threads must land in the exact tally the file-replay round
// produces (the reference round replays the files directly).
TEST(DistributedRoundTest, SocketFedRoundMatchesFileFedReference) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 400;
  gen.seed = 77;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_privcount_plan(
      2, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 31;
  plan.workload.kind = workload_kind::socket;
  plan.instruments = {"stream_taxonomy"};
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);
  assign_free_event_ports(plan, gen.dcs);

  // Feeder failures are captured (never thrown out of a std::thread) and
  // the threads are joined on every path, so a failing round reports the
  // real error instead of std::terminate.
  std::vector<std::string> feeder_errors(gen.dcs);
  std::vector<std::thread> feeders;
  for (std::size_t k = 0; k < gen.dcs; ++k) {
    feeders.emplace_back([&, k] {
      try {
        tor::stream_trace_to_socket(
            "127.0.0.1",
            static_cast<std::uint16_t>(plan.workload.event_port_base + k),
            workdir.path() + "/" + tor::trace_file_name(k), 30'000);
      } catch (const std::exception& e) {
        feeder_errors[k] = e.what();
      }
    });
  }
  distributed_round_result result;
  std::string round_error;
  try {
    result = run_distributed_round(plan, bin, workdir.path(), 60'000);
  } catch (const std::exception& e) {
    round_error = e.what();
  }
  for (auto& f : feeders) f.join();
  ASSERT_EQ(round_error, "");
  for (std::size_t k = 0; k < feeder_errors.size(); ++k) {
    EXPECT_EQ(feeder_errors[k], "") << "feeder " << k << " failed";
  }
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }

  deployment_plan file_plan = plan;
  file_plan.workload.kind = workload_kind::trace;
  file_plan.workload.trace_dir = workdir.path();
  EXPECT_EQ(result.tally, run_reference_round(file_plan));
  // And the socket plan itself refuses an (unreproducible) reference round.
  EXPECT_THROW((void)run_reference_round(plan), precondition_error);
}

// `generate` workloads re-materialize the events in every process instead
// of reading files; the reference round must agree with itself and with an
// equivalent trace-file round.
TEST(DistributedRoundTest, GenerateWorkloadMatchesTraceWorkload) {
  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 300;
  gen.seed = 3;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(2, 1, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.workload.kind = workload_kind::generate;
  plan.workload.model = gen.model;
  plan.workload.events = gen.events;
  plan.workload.gen_seed = gen.seed;
  plan.psc_extractor = "primary_sld";
  const std::string generated = run_reference_round(plan);
  EXPECT_EQ(generated, run_reference_round(plan));

  deployment_plan trace_plan = plan;
  trace_plan.workload.kind = workload_kind::trace;
  trace_plan.workload.trace_dir = workdir.path();
  EXPECT_EQ(generated, run_reference_round(trace_plan));
}

// The PR-5 acceptance check: a multi-round deployment — every process stays
// alive across a schedule of rounds, DCs windowing one continuous multi-day
// trace by sim time — reproduces the in-process multi-round reference bit
// for bit, for both protocols.
TEST(DistributedRoundTest, MultiRoundPscDeploymentIsByteIdenticalToInprocess) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 450;
  gen.days = 3;
  gen.seed = 71;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(2, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 73;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 90'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_NE(result.tally.find("tormet-tally-multiround-v1"), std::string::npos);
  EXPECT_NE(result.tally.find("rounds 3"), std::string::npos);
  EXPECT_EQ(result.tally, run_reference_round(plan));
}

TEST(DistributedRoundTest,
     MultiRoundPrivcountDeploymentIsByteIdenticalToInprocess) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 450;
  gen.days = 3;
  gen.seed = 79;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_privcount_plan(
      2, 2, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 83;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 90'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_EQ(result.tally, run_reference_round(plan));

  // The windows are real: with noise off, each round's streams/total is
  // exactly the per-day event count of the generated trace.
  plan.privcount_noise_enabled = false;
  const std::string noiseless = run_reference_round(plan);
  const auto per_dc = workload::generate_trace_events(gen);
  std::vector<std::size_t> per_day(3, 0);
  for (const auto& dc_events : per_dc) {
    for (const auto& ev : dc_events) {
      ++per_day.at(static_cast<std::size_t>(ev.at.seconds / k_seconds_per_day));
    }
  }
  for (std::size_t day = 0; day < 3; ++day) {
    EXPECT_NE(noiseless.find("counter streams/total " +
                             std::to_string(per_day[day]) + " "),
              std::string::npos)
        << "day " << day << " of:\n"
        << noiseless;
  }
}

// Registry-gap coverage: parameterized instruments (TLD histogram, domain
// sets, ahmia HSDir classification) declared purely by name in a plan file
// round-trip through a distributed round byte-identical to in-process.
TEST(DistributedRoundTest, ParameterizedInstrumentPlansAreByteIdentical) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  // zipf traces exercise the TLD histogram + domain sets; the onion model
  // exercises the ahmia HSDir classifier.
  {
    workdir_guard workdir;
    workload::trace_gen_params gen;
    gen.model = "zipf";
    gen.dcs = 2;
    gen.events = 400;
    gen.seed = 89;
    workload::write_trace_dir(gen, workdir.path());

    std::vector<privcount::counter_spec> counters;
    for (const auto& name : {"tld_histogram", "domain_sets"}) {
      for (auto& spec : core::default_specs_for(name)) {
        counters.push_back(std::move(spec));
      }
    }
    deployment_plan plan = make_privcount_plan(2, 1, std::move(counters));
    plan.rng_seed = 97;
    plan.workload.kind = workload_kind::trace;
    plan.workload.trace_dir = workdir.path();
    plan.instruments = {"tld_histogram", "domain_sets"};
    plan.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(plan);

    // The plan text itself carries the instrument names (registry lookup on
    // every node).
    const deployment_plan parsed = parse_plan(serialize_plan(plan));
    ASSERT_EQ(parsed.instruments,
              (std::vector<std::string>{"tld_histogram", "domain_sets"}));

    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir.path(), 60'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
    }
    EXPECT_EQ(result.tally, run_reference_round(plan));
    EXPECT_NE(result.tally.find("tld/com"), std::string::npos);

    // zipf targets are "zipf<rank>.com": noiseless tld/com counts exactly
    // the primary-domain events.
    plan.privcount_noise_enabled = false;
    const std::string noiseless = run_reference_round(plan);
    const auto per_dc = workload::generate_trace_events(gen);
    std::size_t primaries = 0;
    for (const auto& dc_events : per_dc) {
      for (const auto& ev : dc_events) {
        const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
        if (s != nullptr && s->is_initial &&
            s->kind == tor::address_kind::hostname &&
            (s->port == 80 || s->port == 443)) {
          ++primaries;
        }
      }
    }
    EXPECT_NE(noiseless.find("counter tld/com " + std::to_string(primaries) +
                             " "),
              std::string::npos)
        << noiseless;
  }
  {
    workdir_guard workdir;
    workload::trace_gen_params gen;
    gen.model = "onion";
    gen.dcs = 2;
    gen.scale = 2e-4;
    gen.seed = 101;
    workload::write_trace_dir(gen, workdir.path());

    deployment_plan plan = make_privcount_plan(
        2, 1, core::default_specs_for("hsdir_ahmia"));
    plan.rng_seed = 103;
    plan.workload.kind = workload_kind::trace;
    plan.workload.trace_dir = workdir.path();
    plan.instruments = {"hsdir_ahmia"};
    plan.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(plan);

    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir.path(), 60'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
    }
    EXPECT_EQ(result.tally, run_reference_round(plan));
    EXPECT_NE(result.tally.find("hsdir/fetch/success/public"),
              std::string::npos);
  }
}

// PR-7/PR-8 acceptance: the DC ingest-shard count and ingest worker count
// are pure throughput knobs. For every tested combination the full
// multi-process pipeline must produce tally bytes AND .summary sidecar
// bytes identical to the 1-shard serial run and to the scalar in-process
// reference — proving the hash partitioning, per-shard slab accumulation,
// pool scheduling, and report-time merge never leak into the output.
namespace {

[[nodiscard]] std::set<std::size_t> shard_count_matrix() {
  return {1, 2, 8,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

void expect_shard_count_independence(deployment_plan plan,
                                     const std::string& bin,
                                     const std::string& workdir,
                                     const char* summary_marker) {
  plan.dc_shards = 1;
  plan.dc_ingest_threads = 0;
  const std::string reference = run_reference_round(plan);
  std::string summary_baseline;
  for (const std::size_t shards : shard_count_matrix()) {
    plan.dc_shards = shards;
    // Pair each shard count with a different pool size (serial for one
    // shard, 2/4 workers otherwise) so the e2e matrix covers the parallel
    // path without multiplying the number of full distributed rounds; the
    // exhaustive {shards} x {workers} DC-level matrix lives in
    // ingest_parallel_test.
    plan.dc_ingest_threads = shards == 1 ? 0 : (shards == 2 ? 2 : 4);
    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir, 90'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0)
          << "node " << n.id << " failed at " << shards << " shards";
    }
    EXPECT_EQ(result.tally, reference) << "tally diverged at " << shards
                                       << " shards";
    EXPECT_NE(result.summary.find(summary_marker), std::string::npos);
    if (summary_baseline.empty()) {
      summary_baseline = result.summary;
    } else {
      EXPECT_EQ(result.summary, summary_baseline)
          << "summary diverged at " << shards << " shards";
    }
  }
}

}  // namespace

TEST(DistributedRoundTest, PscShardCountNeverChangesTallyBytes) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 300;
  gen.days = 2;
  gen.seed = 111;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(2, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 113;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  expect_shard_count_independence(plan, bin, workdir.path(),
                                  "tormet-summary-v1");
}

TEST(DistributedRoundTest, PscP256ShardCountNeverChangesTallyBytes) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 150;
  gen.seed = 127;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(2, 1, 128);
  // Default group: the production P-256 backend — the seeded-insert path
  // must be byte-stable on real EC ciphertexts, not just the toy group.
  plan.rng_seed = 131;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  plan.dc_shards = 1;
  const std::string reference = run_reference_round(plan);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    plan.dc_shards = shards;
    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir.path(), 90'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0)
          << "node " << n.id << " failed at " << shards << " shards";
    }
    EXPECT_EQ(result.tally, reference) << "tally diverged at " << shards
                                       << " shards";
  }
}

TEST(DistributedRoundTest, PrivcountShardCountNeverChangesTallyBytes) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 300;
  gen.days = 3;
  gen.seed = 137;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_privcount_plan(
      2, 2, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 139;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  expect_shard_count_independence(plan, bin, workdir.path(),
                                  "tormet-summary-v1");
}

TEST(DeploymentPlanTest, DcShardsRoundTripsAndValidates) {
  deployment_plan plan = make_psc_plan(2, 1, 256);
  assign_free_ports(plan);
  // Default stays off the wire: pre-PR-7 plan files parse unchanged.
  EXPECT_EQ(serialize_plan(plan).find("dc_shards"), std::string::npos);
  EXPECT_EQ(serialize_plan(plan).find("dc_ingest_threads"),
            std::string::npos);
  plan.dc_shards = 16;
  plan.dc_ingest_threads = 4;
  const deployment_plan back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.dc_shards, 16u);
  EXPECT_EQ(back.dc_ingest_threads, 4u);
  EXPECT_EQ(serialize_plan(back), serialize_plan(plan));
  EXPECT_THROW(parse_plan(serialize_plan(plan) + "dc_shards 0\n"),
               precondition_error);
  EXPECT_THROW(parse_plan(serialize_plan(plan) + "dc_ingest_threads 257\n"),
               precondition_error);
}

TEST(DistributedRoundTest, SeedChangesTheTally) {
  // Cheap determinism cross-check without processes: the reference round is
  // a pure function of the plan, and the seed actually reaches the nodes.
  deployment_plan plan = make_psc_plan(2, 2, 256);
  plan.round.group = crypto::group_backend::toy;
  plan.items_per_dc = 10;
  const std::string t1 = run_reference_round(plan);
  EXPECT_EQ(t1, run_reference_round(plan));
  // Different seeds draw different noise; a single raw-count collision is
  // possible, two in a row is vanishingly unlikely.
  plan.rng_seed += 1;
  const std::string t2 = run_reference_round(plan);
  plan.rng_seed += 1;
  const std::string t3 = run_reference_round(plan);
  EXPECT_TRUE(t1 != t2 || t1 != t3);
}

}  // namespace
}  // namespace tormet::cli
