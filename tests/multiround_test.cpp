// Multi-round live-pipeline tests: sim-time window partitioning of a
// continuously ingested event stream, multi-round distributed rounds that
// keep every process alive across the schedule, and the fault-injection
// harness — a feeder socket killed mid-round, a DC whose stream is delayed
// past the round boundary, and a DC process dropped between rounds. Later
// rounds must still complete, dropped DCs must be excluded, and surviving
// counters must stay exact in noiseless mode.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "src/cli/deployment_plan.h"
#include "src/cli/node_runner.h"
#include "src/cli/orchestrator.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"
#include "src/tor/trace_socket.h"
#include "src/util/op_log.h"
#include "src/workload/trace_gen.h"
#include "tests/node_process.h"

namespace tormet::cli {
namespace {

/// Scoped TORMET_FAULT injection for the spawned node processes (the
/// orchestrator's fork/exec children inherit this test's environment).
class fault_env {
 public:
  explicit fault_env(const std::string& spec) {
    ::setenv("TORMET_FAULT", spec.c_str(), 1);
  }
  ~fault_env() { ::unsetenv("TORMET_FAULT"); }
};

/// Scoped supervisor restart delay: holds a crashed node down long enough
/// for the TS to exhaust its retries and exclude it (the rejoin path).
class restart_delay_env {
 public:
  explicit restart_delay_env(int ms) {
    ::setenv("TORMET_RESTART_DELAY_MS", std::to_string(ms).c_str(), 1);
  }
  ~restart_delay_env() { ::unsetenv("TORMET_RESTART_DELAY_MS"); }
};

[[nodiscard]] int restarts_of(const distributed_round_result& result,
                              net::node_id id) {
  for (const auto& n : result.nodes) {
    if (n.id == id) return n.restarts;
  }
  return -1;
}

[[nodiscard]] tor::event stream_event_at(std::int64_t t, std::size_t observer) {
  tor::event ev;
  ev.observer = static_cast<tor::relay_id>(observer);
  ev.at = sim_time{t};
  ev.body = tor::exit_stream_event{tor::address_kind::hostname, true, 443,
                                   "site" + std::to_string(t) + ".com"};
  return ev;
}

/// Parses a (multi-round) privcount tally into per-round counter maps.
[[nodiscard]] std::vector<std::map<std::string, std::int64_t>>
parse_privcount_rounds(const std::string& tally) {
  std::vector<std::map<std::string, std::int64_t>> rounds;
  std::istringstream in{tally};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("round ", 0) == 0) {
      rounds.emplace_back();
      continue;
    }
    if (line == "protocol privcount" && rounds.empty()) {
      rounds.emplace_back();  // single-round tally: no "round i" markers
      continue;
    }
    if (line.rfind("counter ", 0) != 0 || rounds.empty()) continue;
    std::istringstream ls{line};
    std::string key, name;
    std::int64_t value = 0;
    ls >> key >> name >> value;
    rounds.back()[name] = value;
  }
  return rounds;
}

/// The first line of a summary sidecar that starts with `prefix` (empty
/// if there is none).
[[nodiscard]] std::string summary_line(const std::string& summary,
                                       const std::string& prefix) {
  std::istringstream in{summary};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

/// Reads one numeric field from a DC's `dc_stats <id> <key> <value>`
/// summary-sidecar line (-1 if the line is absent).
[[nodiscard]] std::int64_t summary_stat(const std::string& summary,
                                        net::node_id id,
                                        const std::string& key) {
  const std::string prefix = "dc_stats " + std::to_string(id) + " " + key + " ";
  const std::size_t at = summary.find(prefix);
  if (at == std::string::npos) return -1;
  return std::strtoll(summary.c_str() + at + prefix.size(), nullptr, 10);
}

// -- cursor window semantics -------------------------------------------------

TEST(WorkloadCursorTest, PartitionsStreamIntoWindowsAndCountsGapEvents) {
  workdir_guard workdir;
  {
    tor::trace_writer writer{workdir.path() + "/" + tor::trace_file_name(0)};
    for (const std::int64_t t : {10, 99, 120, 160, 300}) {
      writer.write(stream_event_at(t, 0));
    }
    writer.close();
  }
  deployment_plan plan = make_psc_plan(1, 1, 64);
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  // Schedule: [0,100) and [150,250); 120 falls in the gap, 300 after.
  plan.schedule_rounds = 2;
  plan.round_duration_s = 100;
  plan.round_gap_s = 50;

  workload_cursor cursor{plan, 0};
  std::vector<std::int64_t> seen;
  const auto sink = [&](const tor::event* evs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) seen.push_back(evs[i].at.seconds);
  };

  EXPECT_EQ(cursor.stream_window(sim_time{0}, sim_time{100}, sink), 2u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{10, 99}));

  seen.clear();
  // The gap event (120) is counted-but-dropped; 300 is held as lookahead.
  EXPECT_EQ(cursor.stream_window(sim_time{150}, sim_time{250}, sink), 1u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{160}));
  EXPECT_EQ(cursor.dropped_outside_windows(), 1u);

  // Trailing events drain as dropped.
  EXPECT_EQ(cursor.drain(), 1u);
  EXPECT_EQ(cursor.dropped_outside_windows(), 2u);
  EXPECT_FALSE(cursor.stream_failed());
}

TEST(WorkloadCursorTest, SingleRoundPlansReplayTheWholeStream) {
  workdir_guard workdir;
  {
    tor::trace_writer writer{workdir.path() + "/" + tor::trace_file_name(0)};
    for (const std::int64_t t : {5, 200'000, 900'000}) {
      writer.write(stream_event_at(t, 0));
    }
    writer.close();
  }
  deployment_plan plan = make_psc_plan(1, 1, 64);
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  // A single-round plan's one window is unbounded.
  const round_window w = round_window_for(plan, round_schedule_of(plan), 0);
  workload_cursor cursor{plan, 0};
  std::size_t n = 0;
  EXPECT_EQ(cursor.stream_window(
                w.start, w.end,
                [&](const tor::event*, std::size_t k) { n += k; }),
            3u);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(cursor.dropped_outside_windows(), 0u);
}

// Hand-crafted event slices through the scenario/generated zero-copy fast
// path: the cursor constructor accepts a pre-materialized stream, so the
// window logic can be exercised against exact timestamps.
[[nodiscard]] std::shared_ptr<const std::vector<std::vector<tor::event>>>
one_dc_events(const std::vector<std::int64_t>& times) {
  std::vector<std::vector<tor::event>> per_dc{{}};
  for (const std::int64_t t : times) {
    per_dc[0].push_back(stream_event_at(t, 0));
  }
  return std::make_shared<const std::vector<std::vector<tor::event>>>(
      std::move(per_dc));
}

TEST(WorkloadCursorTest, EmptyWindowsInsideScheduleDeliverNothing) {
  deployment_plan plan = make_psc_plan(1, 1, 64);
  plan.workload.kind = workload_kind::scenario;
  workload_cursor cursor{plan, 0, one_dc_events({10, 500, 510, 900})};
  std::size_t n = 0;
  const auto sink = [&](const tor::event*, std::size_t k) { n += k; };

  EXPECT_EQ(cursor.stream_window(sim_time{0}, sim_time{100}, sink), 1u);
  // Two windows with no events at all: empty delivery, nothing dropped,
  // the cursor keeps its position for the later windows.
  EXPECT_EQ(cursor.stream_window(sim_time{200}, sim_time{300}, sink), 0u);
  EXPECT_EQ(cursor.stream_window(sim_time{320}, sim_time{400}, sink), 0u);
  EXPECT_EQ(cursor.dropped_outside_windows(), 0u);
  EXPECT_EQ(cursor.stream_window(sim_time{450}, sim_time{600}, sink), 2u);
  EXPECT_EQ(cursor.stream_window(sim_time{850}, sim_time{1'000}, sink), 1u);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(cursor.dropped_outside_windows(), 0u);
}

TEST(WorkloadCursorTest, SurgeBurstStraddlingBoundaryDropsOnlyGapEvents) {
  // A flash-crowd-style burst of one event per second across a round
  // boundary: [0,100) collects the front of the burst, the gap [100,150)
  // swallows the middle (counted-but-dropped, collection never pauses),
  // and [150,250) collects the tail.
  std::vector<std::int64_t> burst;
  for (std::int64_t t = 80; t < 180; ++t) burst.push_back(t);
  deployment_plan plan = make_psc_plan(1, 1, 64);
  plan.workload.kind = workload_kind::scenario;
  workload_cursor cursor{plan, 0, one_dc_events(burst)};
  std::size_t n = 0;
  const auto sink = [&](const tor::event*, std::size_t k) { n += k; };

  EXPECT_EQ(cursor.stream_window(sim_time{0}, sim_time{100}, sink), 20u);
  EXPECT_EQ(cursor.stream_window(sim_time{150}, sim_time{250}, sink), 30u);
  EXPECT_EQ(cursor.dropped_outside_windows(), 50u);  // exactly the gap slice
  EXPECT_EQ(n, 50u);
  EXPECT_EQ(cursor.drain(), 0u);
}

TEST(WorkloadCursorTest, GiantSpanWindowDeliversWholeScenarioInOneSpan) {
  // A single window covering all of sim time must hand the entire
  // materialized scenario slice to the sink as one zero-copy span.
  deployment_plan plan = make_psc_plan(2, 1, 64);
  plan.workload.kind = workload_kind::scenario;
  plan.workload.model = "botnet_surge";
  plan.workload.scale = 0.25;
  plan.workload.events = 200;
  plan.workload.gen_seed = 3;
  plan.workload.gen_days = 2;
  const auto generated = materialize_plan_events(plan);
  ASSERT_EQ(generated->size(), 2u);
  ASSERT_GT((*generated)[0].size(), 0u);

  workload_cursor cursor{plan, 0, generated};
  std::size_t calls = 0, n = 0;
  const auto sink = [&](const tor::event*, std::size_t k) {
    ++calls;
    n += k;
  };
  constexpr sim_time lo{std::numeric_limits<std::int64_t>::min()};
  constexpr sim_time hi{std::numeric_limits<std::int64_t>::max()};
  EXPECT_EQ(cursor.stream_window(lo, hi, sink), (*generated)[0].size());
  EXPECT_EQ(n, (*generated)[0].size());
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(cursor.dropped_outside_windows(), 0u);
  EXPECT_EQ(cursor.drain(), 0u);  // nothing left past a giant window
}

TEST(RoundScheduleTest, PlanScheduleDrivesWindowing) {
  deployment_plan plan = make_privcount_plan(2, 1, {{"entry/connections", 12.0, 100.0}});
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.round_gap_s = 3600;
  const core::measurement_schedule sched = round_schedule_of(plan);
  ASSERT_EQ(sched.rounds().size(), 3u);
  EXPECT_EQ(sched.round_of(sim_time{0}), 0u);
  EXPECT_EQ(sched.round_of(sim_time{k_seconds_per_day - 1}), 0u);
  // Gap hour between rounds: no window.
  EXPECT_EQ(sched.round_of(sim_time{k_seconds_per_day + 1800}), std::nullopt);
  EXPECT_EQ(sched.round_of(sim_time{k_seconds_per_day + 3600}), 1u);
}

TEST(DeploymentPlanTest, ScheduleAndGraceFieldsRoundTrip) {
  deployment_plan plan = make_privcount_plan(2, 1, {{"entry/connections", 12.0, 100.0}});
  assign_free_ports(plan);
  plan.schedule_rounds = 4;
  plan.round_duration_s = 7200;
  plan.round_gap_s = 600;
  plan.dc_grace_ms = 1500;
  plan.workload.kind = workload_kind::generate;
  plan.workload.model = "population";
  plan.workload.scale = 5e-5;
  plan.workload.gen_days = 4;
  plan.instruments = {"entry_totals"};

  const deployment_plan back = parse_plan(serialize_plan(plan));
  EXPECT_EQ(back.schedule_rounds, 4u);
  EXPECT_EQ(back.round_duration_s, 7200);
  EXPECT_EQ(back.round_gap_s, 600);
  EXPECT_EQ(back.dc_grace_ms, 1500);
  EXPECT_EQ(back.workload.gen_days, 4u);
  EXPECT_EQ(serialize_plan(back), serialize_plan(plan));

  // Malformed schedule lines are parse errors, not silent defaults.
  const std::string base =
      "tormet-plan-v1\nnode 0 psc_ts 127.0.0.1 9000\n"
      "node 1 psc_cp 127.0.0.1 9001\nnode 2 psc_dc 127.0.0.1 9002\n";
  EXPECT_THROW(parse_plan(base + "schedule rounds 0 duration 60 gap 0\n"),
               precondition_error);
  EXPECT_THROW(parse_plan(base + "schedule rounds 2 duration 0 gap 0\n"),
               precondition_error);
  EXPECT_THROW(parse_plan(base + "schedule rounds 2 duration 60 gap -5\n"),
               precondition_error);
  EXPECT_THROW(parse_plan(base + "schedule 2 60 0\n"), precondition_error);
  EXPECT_THROW(parse_plan(base + "dc_grace_ms 0\n"), precondition_error);
}

// -- fault injection over real processes -------------------------------------

/// Expected noiseless streams/total per round for the zipf trace: events of
/// `dc` with sim time inside round r's daily window.
[[nodiscard]] std::vector<std::uint64_t> expected_streams_per_round(
    const std::vector<std::vector<tor::event>>& per_dc, std::size_t rounds,
    const std::function<bool(std::size_t dc, std::size_t round)>& counted) {
  std::vector<std::uint64_t> totals(rounds, 0);
  for (std::size_t dc = 0; dc < per_dc.size(); ++dc) {
    for (const tor::event& ev : per_dc[dc]) {
      const auto r = static_cast<std::size_t>(ev.at.seconds / k_seconds_per_day);
      if (r < rounds && counted(dc, r)) ++totals[r];
    }
  }
  return totals;
}

/// Raw feeder that pushes `bytes` to the DC's event socket and then closes
/// abruptly — the "killed mid-round" feeder (a truncated record on the
/// wire).
void feed_raw_bytes(std::uint16_t port, const byte_buffer& bytes) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::seconds{30};
  int fd = -1;
  for (;;) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      break;
    }
    ::close(fd);
    ASSERT_LT(clock::now(), deadline) << "feeder could not connect";
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  ::close(fd);  // abrupt close: no trailing record boundary
}

/// A live stream is held to the trace contract: time goes backwards at the
/// t=3 event, so the socket stream fails there, like a truncated one, and
/// neither that event nor the t=6 one after it lands in a window or in the
/// gap count.
TEST(WorkloadCursorTest, SocketStreamWhoseTimeGoesBackwardsFails) {
  deployment_plan plan = make_psc_plan(1, 1, 64);
  plan.workload.kind = workload_kind::socket;
  plan.schedule_rounds = 2;
  plan.round_duration_s = 4;  // windows [0,4) and [4,8)
  plan.round_deadline_ms = 30'000;
  assign_free_ports(plan);
  assign_free_event_ports(plan, 1);
  workload_cursor cursor{plan, 0};

  byte_buffer bytes;
  tor::append_trace_header(bytes);
  for (const std::int64_t t : {5, 3, 6}) {
    tor::append_event_record(bytes, stream_event_at(t, 0));
  }
  std::thread feeder{
      [&] { feed_raw_bytes(plan.workload.event_port_base, bytes); }};
  std::vector<std::int64_t> seen;
  const auto sink = [&](const tor::event* evs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) seen.push_back(evs[i].at.seconds);
  };
  const core::measurement_schedule sched = round_schedule_of(plan);
  for (std::size_t r = 0; r < 2; ++r) {
    const round_window w = round_window_for(plan, sched, r);
    (void)cursor.stream_window(w.start, w.end, sink);
  }
  feeder.join();
  EXPECT_TRUE(cursor.stream_failed());
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5}));
  EXPECT_EQ(cursor.dropped_outside_windows(), 0u);
}

/// A killed feeder socket mid-round and a cleanly-closing feeder mid-stream:
/// both DCs stay alive, later rounds complete, and every counter is exactly
/// the number of events that made it onto the wire inside each window.
TEST(MultiRoundFaultTest, FeederSocketKilledMidRoundKeepsPipelineExact) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 3;
  gen.events = 360;  // 120/day, 40 per DC per day
  gen.days = 3;
  gen.seed = 41;
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  workdir_guard workdir;
  deployment_plan plan = make_privcount_plan(
      3, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 19;
  plan.privcount_noise_enabled = false;
  plan.workload.kind = workload_kind::socket;
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);
  assign_free_event_ports(plan, 3);

  // DC 0: healthy feeder, full 3-day stream. DC 1: feeder killed mid-round
  // (day-0 records plus a truncated day-1 record, then an abrupt close).
  // DC 2: feeder closes cleanly after day 0 (EOF at a record boundary).
  byte_buffer dc1_bytes;
  tor::append_trace_header(dc1_bytes);
  for (const tor::event& ev : per_dc[1]) {
    if (ev.at.seconds < k_seconds_per_day) tor::append_event_record(dc1_bytes, ev);
  }
  {
    byte_buffer one;
    for (const tor::event& ev : per_dc[1]) {
      if (ev.at.seconds >= k_seconds_per_day) {
        tor::append_event_record(one, ev);
        break;
      }
    }
    ASSERT_GT(one.size(), 2u);
    dc1_bytes.insert(dc1_bytes.end(), one.begin(),
                     one.begin() + static_cast<std::ptrdiff_t>(one.size() / 2));
  }
  std::vector<tor::event> dc2_day0;
  for (const tor::event& ev : per_dc[2]) {
    if (ev.at.seconds < k_seconds_per_day) dc2_day0.push_back(ev);
  }

  std::vector<std::thread> feeders;
  feeders.emplace_back([&] {
    tor::stream_events_to_socket("127.0.0.1", plan.workload.event_port_base,
                                 per_dc[0], 30'000);
  });
  feeders.emplace_back([&] {
    feed_raw_bytes(static_cast<std::uint16_t>(plan.workload.event_port_base + 1),
                   dc1_bytes);
  });
  feeders.emplace_back([&] {
    tor::stream_events_to_socket(
        "127.0.0.1",
        static_cast<std::uint16_t>(plan.workload.event_port_base + 2),
        dc2_day0, 30'000);
  });

  distributed_round_result result;
  std::string round_error;
  try {
    result = run_distributed_round(plan, bin, workdir.path(), 90'000);
  } catch (const std::exception& e) {
    round_error = e.what();
  }
  for (auto& f : feeders) f.join();
  ASSERT_EQ(round_error, "");
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }

  // Later rounds completed, and every round's counters are exact: DC 1 and
  // DC 2 contribute only their day-0 events, DC 0 contributes every day.
  const std::vector<std::map<std::string, std::int64_t>> rounds =
      parse_privcount_rounds(result.tally);
  ASSERT_EQ(rounds.size(), 3u);
  const std::vector<std::uint64_t> expected = expected_streams_per_round(
      per_dc, 3, [](std::size_t dc, std::size_t round) {
        return dc == 0 || round == 0;
      });
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rounds[r].at("streams/total"),
              static_cast<std::int64_t>(expected[r]))
        << "round " << r;
  }

  // The mid-stream failure is visible in the operational sidecar: the DC
  // whose feeder died abruptly reports stream_failed 1, the clean-EOF and
  // healthy DCs report 0.
  const std::vector<net::node_id> dc_ids =
      plan.ids_with(node_role::privcount_dc);
  EXPECT_EQ(summary_stat(result.summary, dc_ids[0], "stream_failed"), 0)
      << result.summary;
  EXPECT_EQ(summary_stat(result.summary, dc_ids[1], "stream_failed"), 1)
      << result.summary;
  EXPECT_EQ(summary_stat(result.summary, dc_ids[2], "stream_failed"), 0)
      << result.summary;
}

/// Sharded-ingest regression: a DC running with dc_shards > 1 must survive
/// a feeder killed mid-round exactly like the scalar path — sharding
/// buffers events per window, so a stream failure must not lose or
/// double-count anything already bucketed. Every later round of the live
/// run must be byte-identical to a reference round replaying the truncated
/// trace from files with the scalar observe path.
TEST(MultiRoundFaultTest, ShardedDcSurvivesFeederDeathMatchingTruncatedTrace) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 240;  // 80/day, 40 per DC per day
  gen.days = 3;
  gen.seed = 47;
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  workdir_guard workdir;
  deployment_plan plan = make_privcount_plan(
      2, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 53;
  plan.privcount_noise_enabled = false;
  plan.workload.kind = workload_kind::socket;
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.dc_shards = 3;  // the regression under test
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);
  assign_free_event_ports(plan, 2);

  // DC 0: healthy feeder, full 3-day stream. DC 1: day-0 records, then half
  // of the first day-1 record and an abrupt close — killed mid-round 1.
  byte_buffer dc1_bytes;
  tor::append_trace_header(dc1_bytes);
  for (const tor::event& ev : per_dc[1]) {
    if (ev.at.seconds < k_seconds_per_day) {
      tor::append_event_record(dc1_bytes, ev);
    }
  }
  {
    byte_buffer one;
    for (const tor::event& ev : per_dc[1]) {
      if (ev.at.seconds >= k_seconds_per_day) {
        tor::append_event_record(one, ev);
        break;
      }
    }
    ASSERT_GT(one.size(), 2u);
    dc1_bytes.insert(dc1_bytes.end(), one.begin(),
                     one.begin() + static_cast<std::ptrdiff_t>(one.size() / 2));
  }

  std::vector<std::thread> feeders;
  feeders.emplace_back([&] {
    tor::stream_events_to_socket("127.0.0.1", plan.workload.event_port_base,
                                 per_dc[0], 30'000);
  });
  feeders.emplace_back([&] {
    feed_raw_bytes(static_cast<std::uint16_t>(plan.workload.event_port_base + 1),
                   dc1_bytes);
  });

  distributed_round_result result;
  std::string round_error;
  try {
    result = run_distributed_round(plan, bin, workdir.path(), 90'000);
  } catch (const std::exception& e) {
    round_error = e.what();
  }
  for (auto& f : feeders) f.join();
  ASSERT_EQ(round_error, "");
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }

  // Reference: the same deployment replaying the *truncated* trace from
  // files — DC 1's file simply ends where its feeder died. run_reference_
  // round uses the scalar observe path, so byte-equality also re-proves
  // shard independence on the fault path.
  const std::string ref_dir = workdir.path() + "/truncated";
  std::filesystem::create_directories(ref_dir);
  {
    tor::trace_writer w0{ref_dir + "/" + tor::trace_file_name(0)};
    for (const tor::event& ev : per_dc[0]) w0.write(ev);
    w0.close();
    tor::trace_writer w1{ref_dir + "/" + tor::trace_file_name(1)};
    for (const tor::event& ev : per_dc[1]) {
      if (ev.at.seconds < k_seconds_per_day) w1.write(ev);
    }
    w1.close();
  }
  deployment_plan ref_plan = plan;
  ref_plan.workload.kind = workload_kind::trace;
  ref_plan.workload.trace_dir = ref_dir;
  ref_plan.dc_shards = 1;
  EXPECT_EQ(result.tally, run_reference_round(ref_plan));

  // All three rounds completed; rounds after the kill count only DC 0.
  const std::vector<std::map<std::string, std::int64_t>> rounds =
      parse_privcount_rounds(result.tally);
  ASSERT_EQ(rounds.size(), 3u);
  const std::vector<std::uint64_t> expected = expected_streams_per_round(
      per_dc, 3, [](std::size_t dc, std::size_t round) {
        return dc == 0 || round == 0;
      });
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rounds[r].at("streams/total"),
              static_cast<std::int64_t>(expected[r]))
        << "round " << r;
  }
}

/// A DC process that exits cleanly between rounds: later rounds complete
/// without it, it is excluded from the deployment, and surviving counters
/// stay exact.
TEST(MultiRoundFaultTest, DcDropoutBetweenRoundsIsExcludedAndExact) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 3;
  gen.events = 300;
  gen.days = 3;
  gen.seed = 43;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  deployment_plan plan = make_privcount_plan(
      3, 2, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 29;
  plan.privcount_noise_enabled = false;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // The last DC node (plan DC index 2) dies after the first round.
  const net::node_id victim = plan.ids_with(node_role::privcount_dc).back();
  fault_env fault{std::to_string(victim) + " exit_after_round 0"};

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 90'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }

  const std::vector<std::map<std::string, std::int64_t>> rounds =
      parse_privcount_rounds(result.tally);
  ASSERT_EQ(rounds.size(), 3u);
  const std::vector<std::uint64_t> expected = expected_streams_per_round(
      per_dc, 3, [](std::size_t dc, std::size_t round) {
        return dc != 2 || round == 0;
      });
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rounds[r].at("streams/total"),
              static_cast<std::int64_t>(expected[r]))
        << "round " << r;
  }
}

/// PSC under dropout: the faulted multi-process run must still be
/// byte-identical to an in-process reference in which the dropped DC's
/// trace simply ends after its last completed round — a present-but-empty
/// oblivious table combines to the identical union.
TEST(MultiRoundFaultTest, PscDropoutMatchesTruncatedTraceReference) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 240;
  gen.days = 3;
  gen.seed = 47;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  deployment_plan plan = make_psc_plan(2, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 53;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const net::node_id victim = plan.ids_with(node_role::psc_dc).back();
  distributed_round_result result;
  {
    fault_env fault{std::to_string(victim) + " exit_after_round 0"};
    result = run_distributed_round(plan, bin, workdir.path(), 90'000);
  }
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }

  // Reference: same plan over a trace dir where the victim DC's file holds
  // only its day-0 events.
  const std::string ref_dir = workdir.path() + "/ref";
  std::filesystem::create_directories(ref_dir);
  std::filesystem::copy_file(workdir.path() + "/" + tor::trace_file_name(0),
                             ref_dir + "/" + tor::trace_file_name(0));
  {
    tor::trace_writer writer{ref_dir + "/" + tor::trace_file_name(1)};
    for (const tor::event& ev : per_dc[1]) {
      if (ev.at.seconds < k_seconds_per_day) writer.write(ev);
    }
    writer.close();
  }
  deployment_plan ref_plan = plan;
  ref_plan.workload.trace_dir = ref_dir;
  EXPECT_EQ(result.tally, run_reference_round(ref_plan));
}

/// A DC whose stream is delayed past the round boundary misses the grace
/// window: the round completes without it, it is excluded from later
/// rounds, and surviving counters stay exact.
TEST(MultiRoundFaultTest, DelayedDcStreamIsExcludedAfterGrace) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 3;
  gen.events = 300;
  gen.days = 3;
  gen.seed = 59;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  deployment_plan plan = make_privcount_plan(
      3, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 61;
  plan.privcount_noise_enabled = false;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1200;
  plan.round_deadline_ms = 30'000;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // DC index 1's collection stalls 4 s into round 0 — far past the grace.
  const net::node_id victim = plan.ids_with(node_role::privcount_dc)[1];
  fault_env fault{std::to_string(victim) + " delay_round 0 4000"};

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 90'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }

  const std::vector<std::map<std::string, std::int64_t>> rounds =
      parse_privcount_rounds(result.tally);
  ASSERT_EQ(rounds.size(), 3u);
  // The delayed DC contributes to no round at all: round 0's report missed
  // the grace (and is dropped by the TS's reveal guard), and later rounds
  // exclude it entirely.
  const std::vector<std::uint64_t> expected = expected_streams_per_round(
      per_dc, 3,
      [](std::size_t dc, std::size_t /*round*/) { return dc != 1; });
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rounds[r].at("streams/total"),
              static_cast<std::int64_t>(expected[r]))
        << "round " << r;
  }
}

/// DC startup outlasting the grace: each DC materializes an onion workload
/// for several graces before it serves, while every protocol phase takes a
/// small fraction of one. The TS starts round 1 only once every peer
/// announced itself, so neither a plain grace plan nor a durable one
/// retries or excludes anything, and the tally matches the reference.
TEST(MultiRoundFaultTest, SlowDcStartupSpendsNoGrace) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  const trace_round_defaults defaults = defaults_for_model("onion");
  deployment_plan plan = make_privcount_plan(2, 2, defaults.counters);
  plan.instruments = defaults.instruments;
  plan.workload.kind = workload_kind::generate;
  plan.workload.model = "onion";
  plan.workload.scale = 0.002;  // ~1.5 s to materialize on a 4-vCPU host
  plan.workload.gen_seed = 5;
  plan.rng_seed = 5;
  plan.dc_grace_ms = 300;
  plan.round_deadline_ms = 120'000;
  const std::string reference = run_reference_round(plan);
  const std::vector<net::node_id> dc_ids =
      plan.ids_with(node_role::privcount_dc);
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "grace only");
    workdir_guard workdir;
    deployment_plan run = plan;
    if (durable) run.durable_dir = workdir.path() + "/durable";
    run.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(run);
    const distributed_round_result result =
        run_distributed_round(run, bin, workdir.path(), 300'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
    }
    EXPECT_EQ(result.tally, reference);
    EXPECT_EQ(summary_line(result.summary, "round_retries "),
              "round_retries 0")
        << result.summary;
    for (const auto id : dc_ids) {
      EXPECT_EQ(summary_line(result.summary, "dc " + std::to_string(id) + " "),
                "dc " + std::to_string(id) +
                    " reported 1 missed 0 excluded 0 rejoined 0")
          << result.summary;
    }
  }
}

// -- durable rounds: kill-and-restart recovery -------------------------------

/// PrivCount with every role killed and restarted mid-schedule: the TS at
/// the start of round 2 (op-log replay of a committed round), the SK right
/// after round 1's reveal, and a DC at round 3's collection start. The
/// supervisor restarts each crashed process, the TS retries the
/// interrupted round, and the final multi-round tally must be
/// byte-identical to an uninterrupted in-process reference run.
TEST(DurableRoundTest, PrivcountKillRestartEveryRoleIsExact) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 3;
  gen.events = 300;
  gen.days = 3;
  gen.seed = 67;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_privcount_plan(
      3, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 73;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.durable_dir = workdir.path() + "/durable";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // Node layout: TS=0, SK=1, DCs 2-4. Crash the TS entering round 2, the
  // SK after round 1's reveal, and DC 3 at round 3's collection start
  // (the ':' clause spelling exercises the parser's normalizer).
  fault_env fault{"0 crash_in_round:1;1 crash_after_round:0;3 crash_in_round:2"};
  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 150'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_GE(restarts_of(result, 0), 1);
  EXPECT_GE(restarts_of(result, 1), 1);
  EXPECT_GE(restarts_of(result, 3), 1);

  // Byte-identity is the whole point: noise included, every recovery path
  // must reproduce the uninterrupted run exactly.
  EXPECT_EQ(result.tally, run_reference_round(plan));
  // The privacy-safe summary rides in a sidecar, never in the tally bytes.
  EXPECT_NE(result.summary.find("tormet-summary-v1"), std::string::npos);
  EXPECT_NE(result.summary.find("rounds 3"), std::string::npos);
}

/// PSC with every role killed and restarted: the TS right after committing
/// round 1, a CP at round 2's configure (before its key share), and a DC
/// at round 3's configure. Recovery must reproduce the reference bytes —
/// the mix-chain RNG streams are re-derived per round, so a retried round
/// is byte-identical to the interrupted attempt.
TEST(DurableRoundTest, PscKillRestartEveryRoleIsExact) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 240;
  gen.days = 3;
  gen.seed = 71;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(2, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 79;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.durable_dir = workdir.path() + "/durable";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // Node layout: TS=0, CPs 1-2, DCs 3-4.
  fault_env fault{"0 crash_after_round 0;1 crash_in_round 1;3 crash_in_round 2"};
  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 150'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_GE(restarts_of(result, 0), 1);
  EXPECT_GE(restarts_of(result, 1), 1);
  EXPECT_GE(restarts_of(result, 3), 1);
  EXPECT_EQ(result.tally, run_reference_round(plan));
}

/// A DC whose restart is held back past the TS's retry budget: the round
/// is completed without it (exclusion), later rounds run degraded, and
/// once the restarted DC announces itself the TS re-admits it at a round
/// boundary — the final rounds count its events again. Which intermediate
/// rounds run degraded depends on restart timing, so the assertions pin
/// the first/crash/last rounds and require each round to be exactly one of
/// the two possible participation shapes.
TEST(DurableRoundTest, ExcludedDcRejoinsAfterDelayedRestart) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 3;
  gen.events = 700;
  gen.days = 7;
  gen.seed = 83;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  deployment_plan plan = make_privcount_plan(
      3, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 89;
  plan.privcount_noise_enabled = false;  // exact counters for shape checks
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 7;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1200;
  plan.round_deadline_ms = 30'000;
  plan.durable_dir = workdir.path() + "/durable";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // The last DC (plan DC index 2, node id 4) crashes at round 2's
  // collection start and stays down for 6 s — past the TS's ~4.5 s retry
  // budget (2 fail-fast graces + drains + the final exclusion grace), so
  // the TS excludes it before the supervisor brings it back.
  const net::node_id victim = plan.ids_with(node_role::privcount_dc).back();
  distributed_round_result result;
  {
    fault_env fault{std::to_string(victim) + " crash_in_round 1"};
    restart_delay_env delay{6000};
    result = run_distributed_round(plan, bin, workdir.path(), 180'000);
  }
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_GE(restarts_of(result, victim), 1);

  const std::vector<std::map<std::string, std::int64_t>> rounds =
      parse_privcount_rounds(result.tally);
  ASSERT_EQ(rounds.size(), 7u);
  const std::vector<std::uint64_t> full = expected_streams_per_round(
      per_dc, 7, [](std::size_t, std::size_t) { return true; });
  const std::vector<std::uint64_t> degraded = expected_streams_per_round(
      per_dc, 7, [](std::size_t dc, std::size_t) { return dc != 2; });
  std::size_t degraded_rounds = 0;
  for (std::size_t r = 0; r < 7; ++r) {
    const auto total = rounds[r].at("streams/total");
    EXPECT_TRUE(total == static_cast<std::int64_t>(full[r]) ||
                total == static_cast<std::int64_t>(degraded[r]))
        << "round " << r << " total " << total;
    if (total == static_cast<std::int64_t>(degraded[r])) ++degraded_rounds;
  }
  // Round 1 precedes the crash; round 2 is completed without the victim;
  // by the last round the victim has long rejoined.
  EXPECT_EQ(rounds[0].at("streams/total"), static_cast<std::int64_t>(full[0]));
  EXPECT_EQ(rounds[1].at("streams/total"),
            static_cast<std::int64_t>(degraded[1]));
  EXPECT_EQ(rounds[6].at("streams/total"), static_cast<std::int64_t>(full[6]));
  EXPECT_GE(degraded_rounds, 1u);

  // The summary sidecar records the victim's exclusion and rejoin.
  const std::string dc_line_prefix = "dc " + std::to_string(victim);
  const std::size_t at = result.summary.find(dc_line_prefix);
  ASSERT_NE(at, std::string::npos) << result.summary;
  const std::string dc_line =
      result.summary.substr(at, result.summary.find('\n', at) - at);
  EXPECT_NE(dc_line.find("excluded 1"), std::string::npos) << dc_line;
  EXPECT_NE(dc_line.find("rejoined 1"), std::string::npos) << dc_line;
  EXPECT_NE(result.summary.find("round_retries"), std::string::npos);
}

/// Inter-round gap events were always counted by the cursor but never
/// surfaced: with a short duty cycle (the zipf trace packs each day's
/// events into its first 40 seconds, so a 20-second window catches exactly
/// half) every DC must report exactly its outside-window event count as
/// `dc_stats <id> window_dropped N` in the summary sidecar — and the tally
/// still byte-matches the reference over the same windows.
TEST(MultiRoundFaultTest, GapEventsSurfaceAsWindowDroppedInSummary) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 240;
  gen.days = 3;
  gen.seed = 91;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());
  const std::vector<std::vector<tor::event>> per_dc =
      workload::generate_trace_events(gen);

  deployment_plan plan = make_privcount_plan(
      2, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 97;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 3;
  plan.round_duration_s = 20;  // catches offsets [0, 20) of each day
  plan.round_gap_s = k_seconds_per_day - 20;
  plan.round_deadline_ms = 30'000;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 90'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_EQ(result.tally, run_reference_round(plan));

  // Expected drop count per DC: everything outside the three collection
  // windows [d, d + 20 s) — the inter-round gaps plus the post-schedule
  // drain.
  const std::vector<net::node_id> dc_ids =
      plan.ids_with(node_role::privcount_dc);
  ASSERT_EQ(dc_ids.size(), per_dc.size());
  for (std::size_t k = 0; k < per_dc.size(); ++k) {
    std::int64_t outside = 0;
    for (const tor::event& ev : per_dc[k]) {
      const std::int64_t day = ev.at.seconds / k_seconds_per_day;
      const bool in_window =
          day < 3 && ev.at.seconds - day * k_seconds_per_day < 20;
      if (!in_window) ++outside;
    }
    EXPECT_GT(outside, 0) << "degenerate trace: no gap events for DC " << k;
    EXPECT_EQ(summary_stat(result.summary, dc_ids[k], "window_dropped"),
              outside)
        << result.summary;
    EXPECT_EQ(summary_stat(result.summary, dc_ids[k], "stream_failed"), 0);
  }
}

/// Crash markers are scoped per (node, action, round): one node scheduled
/// to crash in TWO different rounds fires both injections — the second
/// round's marker is distinct, so the respawned incarnation crashes again
/// — and the doubly-recovered run is still byte-identical.
TEST(DurableRoundTest, SameNodeCrashingInTwoRoundsRecoversTwice) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 240;
  gen.days = 3;
  gen.seed = 101;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_psc_plan(2, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 103;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.psc_extractor = "primary_sld";
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.dc_grace_ms = 1500;
  plan.round_deadline_ms = 30'000;
  plan.durable_dir = workdir.path() + "/durable";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // Node layout: TS=0, CPs 1-2, DCs 3-4. DC 3 crashes at round 1's AND
  // round 3's collection start (accumulated clauses for one node).
  const net::node_id victim = plan.ids_with(node_role::psc_dc).front();
  const std::string spec = std::to_string(victim) + " crash_in_round 0;" +
                           std::to_string(victim) + " crash_in_round 2";
  fault_env fault{spec};
  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 150'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_GE(restarts_of(result, victim), 2);
  EXPECT_EQ(result.tally, run_reference_round(plan));
}

/// The supervisor's restart budget is a plan key, not a constant: with
/// max_restarts 0 a crashed durable node is never respawned and the round
/// fails outright instead of recovering.
TEST(DurableRoundTest, MaxRestartsZeroTurnsACrashIntoARoundFailure) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 2;
  gen.events = 160;
  gen.days = 2;
  gen.seed = 107;
  workdir_guard workdir;
  workload::write_trace_dir(gen, workdir.path());

  deployment_plan plan = make_privcount_plan(
      2, 1, core::default_specs_for("stream_taxonomy"));
  plan.rng_seed = 109;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  plan.round_deadline_ms = 30'000;
  plan.durable_dir = workdir.path() + "/durable";
  plan.max_restarts = 0;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  const net::node_id victim = plan.ids_with(node_role::privcount_dc).front();
  fault_env fault{std::to_string(victim) + " crash_in_round 1"};
  EXPECT_THROW(run_distributed_round(plan, bin, workdir.path(), 90'000),
               net::transport_error);
}

/// Each failed attempt counts as one retry: a CP crashing at round 1's
/// configure fails attempt 0 once, so the summary must say
/// `round_retries 1` — the count a TS replaying the same round record
/// after a restart reconstructs.
TEST(DurableRoundTest, CpCrashCountsOneRetry) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  deployment_plan plan = make_psc_plan(3, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.rng_seed = 113;
  plan.dc_grace_ms = 1500;  // bounds the failed attempt's wait
  workdir_guard workdir;
  plan.durable_dir = workdir.path() + "/durable";
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);

  // Node layout: TS=0, CPs 1-2, DCs 3-5.
  fault_env fault{"1 crash_in_round 0"};
  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 90'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_GE(restarts_of(result, 1), 1);
  EXPECT_EQ(result.tally, run_reference_round(plan));
  EXPECT_EQ(summary_line(result.summary, "round_retries "), "round_retries 1")
      << result.summary;
}

/// The last CP (PSC) or the last SK (PrivCount) crashing after a plan's
/// only round: it dies after sending the round's final message, and can
/// take the TS's ROUND_DONE down with it. The TS must resend ROUND_DONE
/// when the restarted peer announces itself, instead of waiting out the
/// round deadline and failing. The loss depends on timing, so each
/// protocol runs eight times, each run with a 3 s deadline.
TEST(DurableRoundTest, LastPeerCrashingAfterTheOnlyRoundIsSentRoundDoneAgain) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  for (const bool psc : {true, false}) {
    SCOPED_TRACE(psc ? "psc" : "privcount");
    // Node layout: TS=0, CPs or SKs 1-2, DCs 3-5.
    deployment_plan plan =
        psc ? make_psc_plan(3, 2, 512)
            : make_privcount_plan(3, 2,
                                  {{"entry/connections", 12.0, 100.0},
                                   {"entry/circuits", 651.0, 100.0}});
    plan.round.group = crypto::group_backend::toy;
    plan.rng_seed = 127;
    plan.round_deadline_ms = 3'000;
    const std::string reference = run_reference_round(plan);
    fault_env fault{"2 crash_after_round 0"};
    for (int run = 0; run < 8; ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      workdir_guard workdir;
      plan.durable_dir = workdir.path() + "/durable";
      plan.tally_path = workdir.path() + "/tally.out";
      assign_free_ports(plan);
      distributed_round_result result;
      ASSERT_NO_THROW(
          result = run_distributed_round(plan, bin, workdir.path(), 60'000));
      EXPECT_GE(restarts_of(result, 2), 1);
      EXPECT_EQ(result.tally, reference);
    }
  }
}

/// A restarted TS must re-apply the scheduled churn of the round it last
/// committed. With relay_churn over 8 daily rounds, DC 0 is scheduled dark
/// in rounds 3 and 4, and the TS crashes right after committing round 3:
/// the fresh tally server must keep DC 0 out of round 4, exactly like the
/// reference applying the same churn — for both protocols. Over 10 rounds
/// DC 1 is dark in rounds 9 and 10, and the TS crashes after its 9th
/// commit and replays nine round records. Either way the TS's round log,
/// one record per committed round, is all the durable state there is.
TEST(DurableRoundTest, ResumedTsReappliesScheduledDarkExclusions) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  struct resume_case {
    std::string protocol;
    std::uint32_t rounds;
    std::size_t crash_after;  // 0-based round the TS crashes right after
    std::size_t dark_dc;      // scheduled dark in that round and the next
    std::string dark_counts;  // its participation in the summary
  };
  const trace_round_defaults defaults = defaults_for_scenario("relay_churn");
  for (const resume_case& c : std::vector<resume_case>{
           {"psc", 8, 2, 0, "reported 6 missed 2"},
           {"privcount", 8, 2, 0, "reported 6 missed 2"},
           {"privcount", 10, 8, 1, "reported 8 missed 2"}}) {
    const std::string label = c.protocol + " over " + std::to_string(c.rounds);
    deployment_plan plan = c.protocol == "psc"
                               ? make_psc_plan(2, 2, 2'048)
                               : make_privcount_plan(2, 2, defaults.counters);
    if (c.protocol == "psc") {
      plan.round.group = crypto::group_backend::toy;
    } else {
      plan.instruments = defaults.instruments;
    }
    plan.psc_extractor = defaults.psc_extractor;
    plan.workload.kind = workload_kind::scenario;
    plan.workload.model = "relay_churn";
    plan.workload.scale = 1.0;
    plan.workload.events = 2'000;
    plan.workload.gen_seed = 7;
    plan.workload.gen_days = c.rounds;
    plan.schedule_rounds = c.rounds;
    plan.round_duration_s = k_seconds_per_day;
    plan.rng_seed = 7;
    workdir_guard workdir;
    plan.durable_dir = workdir.path() + "/durable";
    plan.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(plan);

    const std::vector<net::node_id> dc_ids = plan.ids_with(
        c.protocol == "psc" ? node_role::psc_dc : node_role::privcount_dc);
    ASSERT_EQ(scheduled_dark_dcs(plan, c.crash_after),
              std::vector<std::size_t>{c.dark_dc});
    ASSERT_EQ(scheduled_dark_dcs(plan, c.crash_after + 1),
              std::vector<std::size_t>{c.dark_dc});

    distributed_round_result result;
    {
      fault_env fault{"0 crash_after_round " + std::to_string(c.crash_after)};
      result = run_distributed_round(plan, bin, workdir.path(), 120'000);
    }
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << label << ": node " << n.id << " failed";
    }
    EXPECT_GE(restarts_of(result, 0), 1) << label;
    EXPECT_EQ(result.tally, run_reference_round(plan)) << label;
    const std::string dark = summary_line(
        result.summary, "dc " + std::to_string(dc_ids[c.dark_dc]) + " ");
    EXPECT_NE(dark.find(c.dark_counts), std::string::npos)
        << label << ": " << dark;

    std::vector<std::string> entries;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(plan.durable_dir)) {
      entries.push_back(
          std::filesystem::relative(e.path(), plan.durable_dir).string());
    }
    std::sort(entries.begin(), entries.end());
    const std::string marker =
        "crashed-0-crash_after_round-" + std::to_string(c.crash_after);
    EXPECT_EQ(entries,
              (std::vector<std::string>{marker, "node-0", "node-0/oplog"}))
        << label;
    EXPECT_EQ(util::durable_store{plan.durable_dir + "/node-0"}.recovered().size(),
              c.rounds)
        << label;
  }
}

/// A restarted TS must re-apply the grace exclusions it recovered. The
/// last DC exits after round 1 and is excluded in round 2 once its graces
/// run out; the TS crashes right after committing round 2. Configuring the
/// excluded DC again in round 3 would change that round's noise (sigma
/// follows the configured DC count) and spend two more retries excluding
/// it again, so the run must match the same plan without the TS crash:
/// the same tally bytes and the same summary, retries included.
TEST(DurableRoundTest, ResumedTsReappliesGraceExclusions) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  const trace_round_defaults defaults = defaults_for_model("population");
  const auto run = [&](const std::string& ts_fault) {
    deployment_plan plan = make_privcount_plan(3, 3, defaults.counters);
    plan.instruments = defaults.instruments;
    plan.workload.kind = workload_kind::generate;
    plan.workload.model = "population";
    plan.workload.scale = 5e-5;
    plan.workload.gen_seed = 11;
    plan.workload.gen_days = 3;
    plan.schedule_rounds = 3;
    plan.round_duration_s = k_seconds_per_day;
    plan.rng_seed = 11;
    plan.dc_grace_ms = 1000;
    plan.round_deadline_ms = 30'000;
    workdir_guard workdir;
    plan.durable_dir = workdir.path() + "/durable";
    plan.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(plan);

    const net::node_id victim = plan.ids_with(node_role::privcount_dc).back();
    fault_env fault{std::to_string(victim) + " exit_after_round 0" + ts_fault};
    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir.path(), 90'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
    }
    return result;
  };
  const distributed_round_result steady = run("");
  const distributed_round_result resumed = run(";0 crash_after_round 1");
  EXPECT_GE(restarts_of(resumed, 0), 1);
  EXPECT_EQ(resumed.tally, steady.tally);
  EXPECT_EQ(resumed.summary, steady.summary);
  // Round 2's two failed attempts, each counted once.
  EXPECT_EQ(summary_line(steady.summary, "round_retries "), "round_retries 2")
      << steady.summary;
}

}  // namespace
}  // namespace tormet::cli
