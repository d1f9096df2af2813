// Event-trace pipeline throughput: how fast measurement events move
// through the codec and replay path that feeds distributed data
// collectors. Stages measured over a generated mixed-model workload:
//   encode    — event -> length-prefixed records in memory
//   decode    — incremental event_decoder over the encoded stream
//   file I/O  — trace_writer out + trace_reader/replay_events back in
//   observe   — decode + full PrivCount instrument stack per event
// The paper's deployment handled ~2 B exit streams/day network-wide
// (~23 k events/s); per-DC ingestion has to beat its share comfortably.
// A parallel stage then measures the PR-8 worker-pool ingest plane
// (serial vs 4 workers, PSC p256 and PrivCount) for the CI speedup gate.
//
// With --days N the bench additionally measures the multi-round live
// pipeline's replay path: a generated N-day trace streamed through a
// cli::workload_cursor that partitions it into daily collection windows
// (the code path every DC runs across a multi-round schedule).
//
// Usage: trace_replay [events] [--days N] [--json]
#include "common.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>

#include <thread>

#include "src/cli/deployment_plan.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/psc/data_collector.h"
#include "src/psc/messages.h"
#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace tormet;
using clock_type = std::chrono::steady_clock;

double secs_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Multi-round replay throughput: one N-day trace streamed through the
/// workload_cursor's daily windows (the live pipeline's DC replay path).
int run_multiround(std::uint64_t target_events, std::uint64_t days, bool json) {
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 1;
  gen.events = target_events;
  gen.days = days;
  gen.seed = 8;

  char tmpl[] = "/tmp/tormet-bench-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  const std::vector<std::size_t> counts = workload::write_trace_dir(gen, dir);
  const std::size_t n = counts.front();

  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("stream_taxonomy"));
  plan.workload.kind = cli::workload_kind::trace;
  plan.workload.trace_dir = dir;
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = static_cast<std::uint32_t>(days);
  plan.round_duration_s = k_seconds_per_day;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9900 + i);
  }
  const core::measurement_schedule sched = cli::round_schedule_of(plan);

  const auto t0 = clock_type::now();
  cli::workload_cursor cursor{plan, 0};
  std::size_t replayed = 0;
  for (const auto& round : sched.rounds()) {
    replayed += cursor.stream_window(round.start, round.end(),
                                     [&](const tor::event*, std::size_t) {});
  }
  replayed += cursor.drain();
  const double replay_s = secs_since(t0);

  const std::string path = std::string{dir} + "/" + tor::trace_file_name(0);
  std::remove(path.c_str());
  rmdir(dir);
  if (replayed != n) {
    std::fprintf(stderr, "multiround count mismatch: %zu of %zu\n", replayed, n);
    return 1;
  }
  const double eps = static_cast<double>(n) / replay_s;
  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.multiround\",\"events\":%zu,\"days\":%llu,"
        "\"rounds\":%llu,\"replay_eps\":%.0f}\n",
        n, static_cast<unsigned long long>(days),
        static_cast<unsigned long long>(days), eps);
    return 0;
  }
  repro_table table{"Multi-round windowed replay (" + std::to_string(n) +
                    " events, " + std::to_string(days) + " daily rounds)"};
  table.add("windowed file replay", "", format_count(eps) + " ev/s", "");
  table.print();
  return 0;
}

/// The fixed per-event yardstick of the batched-ingest gate: the
/// stream_taxonomy closure behind a string-keyed adapter, the form every
/// instrument took before instruments declared their counters. Each event
/// is one std::function call; each increment names its counter as a string
/// and reaches its slot through two more std::function calls and a hash-map
/// lookup. Only this bench uses it; its counts equal the registry
/// instrument's.
class string_keyed_stream_taxonomy final : public privcount::batch_instrument {
 public:
  string_keyed_stream_taxonomy()
      : batch_instrument{counter_names_of("stream_taxonomy")} {
    for (std::size_t i = 0; i < counters().size(); ++i) {
      index_.emplace(counters()[i], i);
    }
    index_of_ = [this](const std::string& counter) {
      return index_.find(counter)->second;
    };
  }

  void ingest(const tor::event* evs, std::size_t n, const std::size_t* slots,
              std::uint64_t* slab) const override {
    const target t{slots, slab};
    const incr_fn incr = make_incr(t);
    for (std::size_t i = 0; i < n; ++i) step_(evs[i], incr);
  }

  void ingest(const tor::event* const* evs, std::size_t n,
              const std::size_t* slots, std::uint64_t* slab) const override {
    const target t{slots, slab};
    const incr_fn incr = make_incr(t);
    for (std::size_t i = 0; i < n; ++i) step_(*evs[i], incr);
  }

 private:
  using incr_fn = std::function<void(const std::string&, std::uint64_t)>;
  struct target {
    const std::size_t* slots;
    std::uint64_t* slab;
  };

  static std::vector<std::string> counter_names_of(const std::string& name) {
    std::vector<std::string> out;
    for (const auto& spec : core::default_specs_for(name)) {
      out.push_back(spec.name);
    }
    return out;
  }

  [[nodiscard]] incr_fn make_incr(const target& t) const {
    return [this, &t](const std::string& counter, std::uint64_t amount) {
      t.slab[t.slots[index_of_(counter)]] += amount;
    };
  }

  std::unordered_map<std::string, std::size_t> index_;
  std::function<std::size_t(const std::string&)> index_of_;
  std::function<void(const tor::event&, const incr_fn&)> step_ =
      [](const tor::event& ev, const incr_fn& incr) {
        const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
        if (s == nullptr) return;
        incr("streams/total", 1);
        if (!s->is_initial) return;
        incr("streams/initial", 1);
        switch (s->kind) {
          case tor::address_kind::hostname:
            incr("streams/initial/hostname", 1);
            incr(s->port == 80 || s->port == 443
                     ? "streams/initial/hostname/web"
                     : "streams/initial/hostname/other",
                 1);
            break;
          case tor::address_kind::ipv4:
            incr("streams/initial/ipv4", 1);
            break;
          case tor::address_kind::ipv6:
            incr("streams/initial/ipv6", 1);
            break;
        }
      };
};

/// Sharded batched-ingest throughput: the same generated stream pushed
/// through workload_cursor::stream_window into a DC's ingest() path
/// (slot-compiled instruments + flat counter slabs), against the per-event
/// observe() baseline with the string-keyed yardstick above. The CI gate
/// pins the ratio, which is machine-independent.
int run_ingest(std::uint64_t target_events, bool json) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = target_events;
  params.seed = 8;
  const auto generated =
      std::make_shared<const std::vector<std::vector<tor::event>>>(
          workload::generate_trace_events(params));
  const std::vector<tor::event>& events = generated->front();
  const std::size_t n = events.size();

  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("stream_taxonomy"));
  plan.workload.kind = cli::workload_kind::generate;
  plan.workload.model = "zipf";
  plan.workload.events = target_events;
  plan.workload.gen_seed = 8;
  plan.instruments = {"stream_taxonomy"};

  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});  // absorb DC->TS sends
  crypto::deterministic_rng rng{1};
  const auto start_round = [](privcount::data_collector& dc) {
    privcount::configure_msg cfg;
    cfg.round_id = 1;
    for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
    dc.handle_message(privcount::encode_configure(0, 1, cfg));
    dc.handle_message(privcount::encode_simple(
        0, 1, privcount::msg_type::start_collection, 1));
  };
  constexpr sim_time k_begin{std::numeric_limits<std::int64_t>::min()};
  constexpr sim_time k_end{std::numeric_limits<std::int64_t>::max()};

  // The yardstick must count exactly what the registry instrument counts:
  // one pass of each, compared report to report (zero sigmas and no share
  // keepers leave the raw counts).
  const auto one_pass_report =
      [&](const privcount::data_collector::instrument& ins) {
        net::inproc_net check_bus;
        std::vector<std::uint64_t> values;
        check_bus.register_node(0, [&](const net::message& m) {
          if (m.type ==
              static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
            values = privcount::decode_dc_report(m).values;
          }
        });
        privcount::data_collector dc{1, 0, check_bus, rng};
        dc.add_instrument(ins);
        start_round(dc);
        dc.ingest(events.data(), n);
        dc.handle_message(privcount::encode_simple(
            0, 1, privcount::msg_type::stop_collection, 1));
        check_bus.run_until_quiescent();
        return values;
      };
  const auto yardstick = std::make_shared<const string_keyed_stream_taxonomy>();
  if (one_pass_report(yardstick) !=
      one_pass_report(core::instrument_by_name("stream_taxonomy"))) {
    std::fprintf(stderr, "string-keyed yardstick miscounts\n");
    return 1;
  }

  // -- scalar baseline: string-keyed instrument, observe() per event --------
  privcount::data_collector scalar_dc{1, 0, bus, rng};
  scalar_dc.add_instrument(yardstick);
  start_round(scalar_dc);
  std::size_t scalar_total = 0;
  auto t0 = clock_type::now();
  do {
    for (const tor::event& ev : events) scalar_dc.observe(ev);
    scalar_total += n;
  } while (secs_since(t0) < 0.2);
  const double scalar_s = secs_since(t0);

  // -- batched ingest, 1 shard and 4 shards ---------------------------------
  const auto measure_ingest = [&](std::size_t shards, std::size_t& total) {
    privcount::data_collector dc{1, 0, bus, rng};
    dc.add_instrument(core::instrument_by_name("stream_taxonomy"));
    dc.set_shards(shards);
    start_round(dc);
    total = 0;
    const auto start = clock_type::now();
    do {
      cli::workload_cursor cursor{plan, 0, generated};
      cursor.stream_window(
          k_begin, k_end,
          [&dc](const tor::event* evs, std::size_t k) { dc.ingest(evs, k); });
      total += n;
    } while (secs_since(start) < 0.4);
    if (dc.events_observed() != total) {
      std::fprintf(stderr, "ingest count mismatch at %zu shards\n", shards);
      std::exit(1);
    }
    return secs_since(start);
  };
  std::size_t ingest1_total = 0, ingest4_total = 0;
  const double ingest1_s = measure_ingest(1, ingest1_total);
  const double ingest4_s = measure_ingest(4, ingest4_total);

  if (scalar_dc.events_observed() != scalar_total) {
    std::fprintf(stderr, "scalar count mismatch\n");
    return 1;
  }
  const double scalar_eps = static_cast<double>(scalar_total) / scalar_s;
  const double ingest_eps = static_cast<double>(ingest1_total) / ingest1_s;
  const double ingest4_eps = static_cast<double>(ingest4_total) / ingest4_s;
  const double speedup = ingest_eps / scalar_eps;
  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.ingest\",\"events\":%zu,\"shards\":1,"
        "\"ingest_eps\":%.0f,\"ingest4_eps\":%.0f,\"scalar_eps\":%.0f,"
        "\"speedup\":%.2f}\n",
        n, ingest_eps, ingest4_eps, scalar_eps, speedup);
    return 0;
  }
  repro_table table{"Sharded batched ingest (" + std::to_string(n) +
                    " events/pass, stream_taxonomy)"};
  table.add("observe baseline", "", format_count(scalar_eps) + " ev/s", "");
  table.add("batched ingest (1 shard)", "", format_count(ingest_eps) + " ev/s",
            format_count(speedup) + "x");
  table.add("batched ingest (4 shards)", "",
            format_count(ingest4_eps) + " ev/s", "");
  table.print();
  return 0;
}

/// Parallel-ingest speedup: serial single-thread ingest vs the PR-8 worker
/// pool (8 shards on a 4-worker pool), for both DC kinds. The PSC p256
/// number is the headline — each insert is a real EC encryption, so shard
/// workers scale near-linearly and the CI gate pins the 4-worker speedup
/// (>= 1.8x) on multi-core runners. PrivCount slab ingest is memory-bound
/// and reported for reference only. On machines with fewer than 4 cores
/// the speedup is meaningless; `skipped` tells the gate to stand down.
int run_parallel(bool json) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const bool skipped = hw < 4;
  constexpr std::size_t k_workers = 4;
  constexpr std::size_t k_shards = 8;

  // -- PSC p256: crypto-dominated seeded inserts ----------------------------
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = 2'000;
  params.seed = 8;
  const std::vector<tor::event> events =
      workload::generate_trace_events(params).front();

  const auto group = crypto::make_group(crypto::group_backend::p256);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);

  const auto psc_eps = [&](std::shared_ptr<util::thread_pool> pool) {
    net::inproc_net bus;
    bus.register_node(0, [](const net::message&) {});
    crypto::deterministic_rng rng{1};
    psc::data_collector dc{1, 0, bus, rng};
    dc.set_extractor(core::extractor_by_name("primary_sld"));
    dc.set_shards(k_shards);
    if (pool != nullptr) dc.set_thread_pool(std::move(pool));
    psc::dc_configure_msg cfg;
    cfg.round_id = 1;
    cfg.bins = 1024;
    cfg.group = static_cast<std::uint8_t>(crypto::group_backend::p256);
    cfg.joint_pk = group->encode(kp.pub);
    dc.handle_message(psc::encode_dc_configure(0, 1, cfg));
    std::size_t total = 0;
    const auto t0 = clock_type::now();
    do {
      dc.ingest(events.data(), events.size());
      total += events.size();
    } while (secs_since(t0) < 0.4);
    return static_cast<double>(total) / secs_since(t0);
  };
  const double psc_serial = psc_eps(nullptr);
  const double psc_parallel =
      psc_eps(std::make_shared<util::thread_pool>(k_workers));
  const double psc_speedup = psc_parallel / psc_serial;

  // -- PrivCount: memory-bound slab ingest (reference numbers) --------------
  params.events = 100'000;
  const std::vector<tor::event> pc_events =
      workload::generate_trace_events(params).front();
  const auto privcount_eps = [&](std::shared_ptr<util::thread_pool> pool) {
    net::inproc_net bus;
    bus.register_node(0, [](const net::message&) {});
    crypto::deterministic_rng rng{1};
    privcount::data_collector dc{1, 0, bus, rng};
    dc.add_instrument(core::instrument_by_name("stream_taxonomy"));
    dc.set_shards(k_shards);
    if (pool != nullptr) dc.set_thread_pool(std::move(pool));
    privcount::configure_msg cfg;
    cfg.round_id = 1;
    for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
    dc.handle_message(privcount::encode_configure(0, 1, cfg));
    dc.handle_message(privcount::encode_simple(
        0, 1, privcount::msg_type::start_collection, 1));
    std::size_t total = 0;
    const auto t0 = clock_type::now();
    do {
      dc.ingest(pc_events.data(), pc_events.size());
      total += pc_events.size();
    } while (secs_since(t0) < 0.4);
    return static_cast<double>(total) / secs_since(t0);
  };
  const double pc_serial = privcount_eps(nullptr);
  const double pc_parallel =
      privcount_eps(std::make_shared<util::thread_pool>(k_workers));
  const double pc_speedup = pc_parallel / pc_serial;

  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.parallel\",\"workers\":%zu,\"shards\":%zu,"
        "\"hw\":%zu,\"skipped\":%s,\"psc_serial_eps\":%.0f,"
        "\"psc_parallel_eps\":%.0f,\"psc_speedup\":%.2f,"
        "\"privcount_serial_eps\":%.0f,\"privcount_parallel_eps\":%.0f,"
        "\"privcount_speedup\":%.2f}\n",
        k_workers, k_shards, hw, skipped ? "true" : "false", psc_serial,
        psc_parallel, psc_speedup, pc_serial, pc_parallel, pc_speedup);
    return 0;
  }
  repro_table table{"Parallel ingest, 8 shards on a 4-worker pool (hw " +
                    std::to_string(hw) + (skipped ? ", gate skipped)" : ")")};
  table.add("PSC p256 serial", "", format_count(psc_serial) + " ev/s", "");
  table.add("PSC p256 4 workers", "", format_count(psc_parallel) + " ev/s",
            format_count(psc_speedup) + "x");
  table.add("PrivCount serial", "", format_count(pc_serial) + " ev/s", "");
  table.add("PrivCount 4 workers", "", format_count(pc_parallel) + " ev/s",
            format_count(pc_speedup) + "x");
  table.print();
  return 0;
}

/// Scenario replay throughput: the Mevade-shaped botnet_surge workload
/// (PR 9's heaviest scenario — day 1 doubles the event rate) materialized
/// from its plan spec and streamed through the daily-window cursor path
/// into a sharded DC. This is exactly the code path the scenario
/// acceptance gate drives; the CI artifact tracks its events/s.
int run_scenario(bool json) {
  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("entry_totals"));
  plan.workload.kind = cli::workload_kind::scenario;
  plan.workload.model = "botnet_surge";
  plan.workload.scale = 1.0;
  plan.workload.events = 50'000;
  plan.workload.gen_seed = 8;
  plan.workload.gen_days = 2;
  plan.instruments = {"entry_totals"};
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9800 + i);
  }

  const auto gen_t0 = clock_type::now();
  const auto generated = cli::materialize_plan_events(plan);
  const double generate_s = secs_since(gen_t0);
  const std::size_t n = generated->front().size();
  const core::measurement_schedule sched = cli::round_schedule_of(plan);

  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{1};
  privcount::data_collector dc{1, 0, bus, rng};
  dc.add_instrument(core::instrument_by_name("entry_totals"));
  dc.set_shards(4);
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& spec : core::default_specs_for("entry_totals")) {
    cfg.counter_names.push_back(spec.name);
    cfg.sigmas.push_back(0.0);
  }
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));

  std::size_t total = 0;
  const auto t0 = clock_type::now();
  do {
    cli::workload_cursor cursor{plan, 0, generated};
    std::size_t replayed = 0;
    for (const auto& round : sched.rounds()) {
      replayed += cursor.stream_window(
          round.start, round.end(),
          [&dc](const tor::event* evs, std::size_t k) { dc.ingest(evs, k); });
    }
    replayed += cursor.drain();
    if (replayed != n) {
      std::fprintf(stderr, "scenario replay mismatch: %zu of %zu\n", replayed,
                   n);
      return 1;
    }
    total += n;
  } while (secs_since(t0) < 0.4);
  const double eps = static_cast<double>(total) / secs_since(t0);

  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.scenario\",\"scenario\":\"botnet_surge\","
        "\"events\":%zu,\"rounds\":2,\"generate_s\":%.3f,\"replay_eps\":%.0f}"
        "\n",
        n, generate_s, eps);
    return 0;
  }
  repro_table table{"Scenario replay, botnet_surge (" + std::to_string(n) +
                    " events, 2 daily rounds, 4 shards)"};
  table.add("materialize from plan", "",
            format_count(static_cast<double>(n) / generate_s) + " ev/s", "");
  table.add("windowed replay + ingest", "", format_count(eps) + " ev/s", "");
  table.print();
  return 0;
}

int run(std::uint64_t target_events, bool json) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = target_events;
  params.seed = 8;
  const std::vector<tor::event> events =
      workload::generate_trace_events(params).front();
  const std::size_t n = events.size();

  // -- encode ---------------------------------------------------------------
  auto t0 = clock_type::now();
  byte_buffer stream;
  tor::append_trace_header(stream);
  for (const tor::event& ev : events) tor::append_event_record(stream, ev);
  const double encode_s = secs_since(t0);
  const double mib = static_cast<double>(stream.size()) / (1 << 20);

  // -- decode ---------------------------------------------------------------
  t0 = clock_type::now();
  tor::event_decoder decoder;
  decoder.feed(stream);
  std::size_t decoded = 0;
  while (decoder.next().has_value()) ++decoded;
  const double decode_s = secs_since(t0);

  // -- file round trip ------------------------------------------------------
  char tmpl[] = "/tmp/tormet-bench-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  const std::string path = std::string{dir} + "/bench.trace";
  t0 = clock_type::now();
  {
    tor::trace_writer writer{path};
    for (const tor::event& ev : events) writer.write(ev);
    writer.close();
  }
  const double write_s = secs_since(t0);
  t0 = clock_type::now();
  tor::trace_reader reader{path};
  std::size_t replayed = 0;
  tor::replay_events(reader, [&replayed](const tor::event&) { ++replayed; });
  const double read_s = secs_since(t0);
  std::remove(path.c_str());
  rmdir(dir);

  // -- observe through the full instrument stack ----------------------------
  net::inproc_net bus;
  crypto::deterministic_rng rng{1};
  privcount::data_collector dc{1, 0, bus, rng};
  for (const auto& name : core::instrument_names()) {
    dc.add_instrument(core::instrument_by_name(name));
  }
  // Drive the DC into collecting state through a minimal configure+start.
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& name : core::instrument_names()) {
    for (const auto& spec : core::default_specs_for(name)) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
  }
  bus.register_node(0, [](const net::message&) {});  // absorb DC->TS sends
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(privcount::encode_simple(
      0, 1, privcount::msg_type::start_collection, 1));
  t0 = clock_type::now();
  for (const tor::event& ev : events) dc.observe(ev);
  const double observe_s = secs_since(t0);

  if (decoded != n || replayed != n || dc.events_observed() != n) {
    std::fprintf(stderr, "count mismatch: %zu decoded, %zu replayed\n",
                 decoded, replayed);
    return 1;
  }

  const auto rate = [n](double s) { return static_cast<double>(n) / s; };
  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay\",\"events\":%zu,\"stream_mib\":%.2f,"
        "\"encode_eps\":%.0f,\"decode_eps\":%.0f,\"write_eps\":%.0f,"
        "\"read_eps\":%.0f,\"observe_eps\":%.0f}\n",
        n, mib, rate(encode_s), rate(decode_s), rate(write_s), rate(read_s),
        rate(observe_s));
    return 0;
  }
  repro_table table{"Event-trace pipeline throughput (" + std::to_string(n) +
                    " events, " + format_count(mib) + " MiB stream)"};
  table.add("encode", "", format_count(rate(encode_s)) + " ev/s",
            format_count(mib / encode_s) + " MiB/s");
  table.add("decode", "", format_count(rate(decode_s)) + " ev/s",
            format_count(mib / decode_s) + " MiB/s");
  table.add("file write", "", format_count(rate(write_s)) + " ev/s", "");
  table.add("file read+replay", "", format_count(rate(read_s)) + " ev/s", "");
  table.add("observe (" + std::to_string(core::instrument_names().size()) +
                " instruments)",
            "", format_count(rate(observe_s)) + " ev/s", "");
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 200'000;
  std::uint64_t days = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = std::strtoull(argv[++i], nullptr, 10);
    } else {
      events = std::strtoull(argv[i], nullptr, 10);
    }
  }
  int rc = run(events, json);
  if (rc == 0) rc = run_ingest(events, json);
  if (rc == 0) rc = run_parallel(json);
  if (rc == 0) rc = run_scenario(json);
  if (rc != 0 || days <= 1) return rc;
  return run_multiround(events, days, json);
}
