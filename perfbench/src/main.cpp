// tormet's end-to-end benchmark (normally started by perfbench/run.py,
// which builds it first).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--work-dir DIR] [--commit SHA]
//
// --trace 0 (timed): sets the workload up several times (median setup_s),
// then for S seconds runs its plan through the distributed deployment and
// the in-process reference, fresh state each time, and reports medians.
// --trace 1 (traced): one setup, one distributed run watched from outside,
// one reference run and one traced in-process run; reports per-layer
// metrics and writes the spans to <work-dir>/spans-<workload>-seed<N>.tsv.
//
// Every run checks its outputs (byte-identical tallies, a clean .summary,
// relay fleet accounting); the last stdout line is the JSON result, and the
// exit code is non-zero when any check failed.
//
// `perfbench --launch PLAN RESULT` is the internal launcher each
// distributed deployment runs in (see deploy.h).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/deploy.h"
#include "perfbench/src/traced.h"
#include "perfbench/src/workloads.h"
#include "src/cli/orchestrator.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_class size = size_class::full;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument{
      why +
      "\nusage: perfbench --workload paper-day|psc-crypto-heavy|relay-fanin "
      "--seed N --seconds S --trace 0|1 [--size full|tiny] [--work-dir DIR] "
      "[--commit SHA]"};
}

[[nodiscard]] options parse_args(int argc, char** argv) {
  options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "tiny") usage("--size takes full or tiny");
      o.size = value == "full" ? size_class::full : size_class::tiny;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else if (arg == "--commit") {
      o.commit = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 120) usage("--seconds must be in (0, 120]");
  return o;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

[[nodiscard]] std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

[[nodiscard]] std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

[[nodiscard]] std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + number(v[i]);
  }
  return out + "]";
}

struct metric {
  std::string name;
  std::string unit;
  double value;
};

/// The metadata line every result carries, then the JSON result line.
void print_result(const options& o, const workload& w,
                  const std::vector<std::pair<std::string, std::string>>& extra,
                  const std::vector<metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  std::ostringstream meta;
  meta << "{\"workload\": " << quoted(w.name) << ", \"seed\": " << o.seed
       << ", \"seconds\": " << number(o.seconds)
       << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"size\": "
       << quoted(o.size == size_class::full ? "full" : "tiny")
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"commit\": " << quoted(o.commit) << ", \"sizes\": {";
  for (std::size_t i = 0; i < w.sizes.size(); ++i) {
    meta << (i > 0 ? ", " : "") << quoted(w.sizes[i].first) << ": "
         << quoted(w.sizes[i].second);
  }
  meta << "}";
  for (const auto& [key, json] : extra) {
    meta << ", " << quoted(key) << ": " << json;
  }
  meta << "}";
  std::cout << "perfbench-meta " << meta.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << quoted(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void report_failures(const std::vector<std::string>& why,
                     const std::string& workdir) {
  for (const auto& reason : why) {
    std::cerr << "perfbench: CHECK FAILED: " << reason << "\n";
  }
  if (!why.empty()) {
    std::cerr << "perfbench: artifacts kept in " << workdir << "\n";
  }
}

/// A timed run is k_phases phases, each a setup, then w.warmup_deployments
/// untimed deployments, then deployments for about 1/k_phases of --seconds
/// (at least one). Spreading the samples over the whole run makes its medians
/// less sensitive to a host whose speed drifts over tens of seconds.
constexpr std::size_t k_phases = 3;
/// Setup passes: the first phase runs at least one, more (up to
/// k_max_setups / k_phases) while they have taken under 1/k_phases of
/// k_setup_budget_s; every later phase runs as many, so each phase weighs
/// the same in the median.
constexpr std::size_t k_max_setups = 48;
constexpr double k_setup_budget_s = 3.0;
/// Stop starting deployments once another one might end past this.
constexpr double k_run_cap_s = 150.0;

int run_timed(const options& o, const workload& w, const std::string& root) {
  const bench_clock::time_point start = bench_clock::now();
  // Nothing is deleted until the last measurement: a delete makes the next
  // fsync (a durable node's checkpoint) wait for its journal commit, and
  // for its discards where the filesystem issues them online.
  std::vector<std::string> garbage;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> write_s;
  std::vector<double> sync_s;
  prepared_inputs inputs;

  // Every deployment runs on fresh state and is checked against the latest
  // in-process reference tally: setup is deterministic, so every pass renders
  // the same inputs, and tally bytes do not depend on the ports and paths
  // that differ between deployments. In timed iterations the reference runs
  // at least once per phase, and whenever it has taken less time so far
  // than the earlier distributed runs, so both sides get about half the
  // measured time.
  std::vector<double> schedule_s;
  std::vector<double> inproc_s;
  std::vector<double> cpu_s;
  std::vector<double> rss_mb;
  std::string reference;
  double distributed_total_s = 0;
  double reference_total_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t runs = 0;
  std::size_t phase = 0;
  const auto iterate = [&](bool timed) {
    const std::string workdir = root + "/run-" + std::to_string(runs++);
    const tormet::cli::deployment_plan plan = fresh_plan(w, inputs, workdir);
    const distributed_run d = run_distributed(plan, workdir, false);
    std::vector<std::string> why;
    const bool reference_due = inproc_s.size() <= phase ||
                               reference_total_s < distributed_total_s;
    if (reference.empty() || (timed && reference_due)) {
      const bench_clock::time_point r0 = bench_clock::now();
      try {
        reference = tormet::cli::run_reference_round(plan);
      } catch (const std::exception& e) {
        why.push_back(std::string{"reference round failed: "} + e.what());
      }
      if (timed) {
        inproc_s.push_back(seconds_between(r0, bench_clock::now()));
        reference_total_s += inproc_s.back();
      }
    }
    const std::uint64_t f =
        why.empty() ? failed_dc_rounds(w, d, reference, inputs.events, why)
                    : w.dc_rounds();
    attempted += w.dc_rounds();
    failed += f;
    if (timed) {
      distributed_total_s += d.schedule_s;
      schedule_s.push_back(d.schedule_s);
      cpu_s.push_back(d.cpu_s);
      rss_mb.push_back(d.rss_mb);
    }
    report_failures(why, workdir);
    if (why.empty()) garbage.push_back(workdir);
  };

  double longest = 0;
  bool capped = false;
  std::size_t setups_per_phase = 0;
  for (; phase < k_phases && !capped; ++phase) {
    const bench_clock::time_point s0 = bench_clock::now();
    const auto more_setups = [&](std::size_t k) {
      if (phase > 0) return k < setups_per_phase;
      return k < k_max_setups / k_phases &&
             (k == 0 || seconds_between(s0, bench_clock::now()) <
                            k_setup_budget_s / k_phases);
    };
    for (std::size_t k = 0; more_setups(k); ++k) {
      inputs = prepare_inputs(
          w, root + "/input-" + std::to_string(setup_s.size()));
      garbage.push_back(inputs.dir);
      setup_s.push_back(inputs.total_s);
      generate_s.push_back(inputs.generate_s);
      write_s.push_back(inputs.trace_write_s);
      sync_s.push_back(inputs.sync_s);
    }
    if (phase == 0) setups_per_phase = setup_s.size();
    for (std::size_t k = 0; k < w.warmup_deployments; ++k) iterate(false);

    const bench_clock::time_point m0 = bench_clock::now();
    for (;;) {
      const bench_clock::time_point i0 = bench_clock::now();
      iterate(true);
      const bench_clock::time_point now = bench_clock::now();
      longest = std::max(longest, seconds_between(i0, now));
      if (seconds_between(start, now) + longest > k_run_cap_s) {
        capped = true;
        break;
      }
      // The phase ends at the iteration boundary nearest its share of
      // --seconds, taking the last iteration's time as the next one's.
      if (seconds_between(m0, now) + seconds_between(i0, now) / 2 >=
          o.seconds / k_phases) {
        break;
      }
    }
  }
  for (const auto& dir : garbage) fs::remove_all(dir);

  const std::vector<metric> metrics{
      {"schedule_s", "s", median(schedule_s)},
      {"inproc_s", "s", median(inproc_s)},
      {"setup_s", "s", median(setup_s)},
      {"cpu_s", "s", median(cpu_s)},
      {"node_rss_mb", "MiB", median(rss_mb)},
  };
  print_result(o, w,
               {{"deployments", std::to_string(schedule_s.size())},
                {"setups", std::to_string(setup_s.size())},
                {"events", std::to_string(inputs.events)},
                {"failed_ratio", number(static_cast<double>(failed) /
                                        static_cast<double>(attempted))},
                {"schedule_s", array(schedule_s)},
                {"inproc_s", array(inproc_s)},
                {"cpu_s", array(cpu_s)},
                {"node_rss_mb", array(rss_mb)},
                {"setup_s", array(setup_s)},
                {"setup_generate_s", number(median(generate_s))},
                {"setup_trace_write_s", number(median(write_s))},
                {"setup_sync_s", number(median(sync_s))}},
               metrics, attempted, failed);
  if (failed == 0) fs::remove_all(root);
  return failed == 0 ? 0 : 1;
}

void write_spans(const tracer& t, const std::string& path) {
  std::ofstream out{path, std::ios::trunc};
  out << "id\tparent\tname\tstart_s\tend_s\n";
  const auto& spans = t.spans();
  if (spans.empty()) return;
  const auto origin = spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << i << "\t"
        << (s.parent == tracer::k_no_parent ? std::string{"-"}
                                            : std::to_string(s.parent))
        << "\t" << t.name_of(s.name) << "\t"
        << number(seconds_between(origin, s.start)) << "\t"
        << number(seconds_between(origin, s.end)) << "\n";
  }
}

int run_trace(const options& o, const workload& w, const std::string& root) {
  const prepared_inputs inputs = prepare_inputs(w, root + "/input-0");
  const std::string workdir = root + "/run-0";
  const tormet::cli::deployment_plan plan = fresh_plan(w, inputs, workdir);
  const distributed_run d = run_distributed(plan, workdir, true);
  const double oplog_bytes =
      plan.durable() ? static_cast<double>(tree_bytes(plan.durable_dir)) : 0.0;

  const bench_clock::time_point r0 = bench_clock::now();
  const std::string reference = tormet::cli::run_reference_round(plan);
  const double inproc_s = seconds_between(r0, bench_clock::now());

  const traced_run tr = run_traced(plan, root + "/traced-pub");
  std::vector<std::string> why;
  std::uint64_t failed = failed_dc_rounds(w, d, reference, inputs.events, why);
  if (tr.tally != reference) {
    why.push_back("traced tally differs from run_reference_round");
    failed = w.dc_rounds();
  }
  report_failures(why, root);

  const std::string spans_path = o.work_dir + "/spans-" + w.name + "-seed" +
                                 std::to_string(o.seed) + ".tsv";
  write_spans(tr.trace, spans_path);
  std::cerr << "perfbench: spans written to " << spans_path << "\n";

  const auto self = tr.trace.self_seconds();
  const auto total = tr.trace.total_seconds();
  const auto at = [](const std::map<std::string, double>& m,
                     const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const summary_totals s = parse_summary(d.summary);
  const double wall = at(total, "traced");
  // Without a seen commit (a failed run) both ends collapse onto the exit.
  const double first_commit =
      d.commits_s.empty() ? d.schedule_s : d.commits_s.front();
  const double last_commit =
      d.commits_s.empty() ? d.schedule_s : d.commits_s.back();

  std::vector<metric> metrics{
      {"workload.generate_s", "s", inputs.generate_s},
      {"tor.trace_write_s", "s", inputs.trace_write_s},
      {"workload.materialize_s", "s", at(total, "workload.materialize")},
      {"cli.cursor_s", "s", at(self, "cli.cursor")},
      {"cli.cursor.events", "count", at(tr.counts, "cli.cursor.events")},
      {"cli.cursor.spans", "count", at(tr.counts, "cli.cursor.spans")},
      {"cli.cursor.dropped", "count", at(tr.counts, "cli.cursor.dropped")},
      {"relay.route_s", "s", at(self, "relay.route")},
      {"relay.close_s", "s", at(self, "relay.close")},
      {"relay.windows", "count", at(tr.counts, "relay.windows")},
      {"relay.keep_ratio", "ratio", at(tr.counts, "relay.keep_ratio")},
      {"relay.faults", "count", at(tr.counts, "relay.faults")},
      {"core.ingest_s", "s", at(self, "core.ingest")},
      {"core.ingest.events", "count", at(tr.counts, "core.ingest.events")},
      {"core.ingest.calls", "count", at(tr.counts, "core.ingest.calls")},
  };
  for (const char* phase :
       {"psc.dc.setup", "psc.dc.report", "psc.cp.setup", "psc.cp.mix",
        "psc.cp.decrypt", "psc.ts.setup", "psc.ts.combine", "psc.ts.forward",
        "psc.ts.decode", "privcount.dc.blind", "privcount.dc.control",
        "privcount.dc.report", "privcount.sk", "privcount.ts.control",
        "privcount.ts.combine", "round.build", "round.open", "round.collect"}) {
    metrics.push_back({std::string{phase} + "_s", "s", at(self, phase)});
  }
  const std::vector<metric> tail{
      {"psc.noise_bits", "count", at(tr.counts, "psc.noise_bits")},
      {"round.close_s", "s", at(total, "round.close")},
      {"net.msgs", "count", at(tr.counts, "net.msgs")},
      {"net.bytes", "bytes", at(tr.counts, "net.bytes")},
      {"net.deliver_s", "s", at(self, "net.deliver")},
      {"cli.first_commit_s", "s", first_commit},
      {"cli.commit_to_exit_s", "s", d.schedule_s - last_commit},
      {"cli.deploy_overhead_s", "s", d.schedule_s - inproc_s},
      {"util.oplog_bytes", "bytes", oplog_bytes},
      {"summary.round_retries", "count", static_cast<double>(s.round_retries)},
      {"summary.dc_missed", "count", static_cast<double>(s.dc_missed)},
      {"summary.dc_excluded", "count", static_cast<double>(s.dc_excluded)},
      {"summary.window_dropped", "count", static_cast<double>(s.window_dropped)},
      {"summary.stream_failed", "count", static_cast<double>(s.stream_failed)},
      {"traced.wall_s", "s", wall},
      {"traced.residual_s", "s", at(self, "traced")},
      {"traced.overhead_s", "s", wall - inproc_s},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  const std::uint64_t attempted = w.dc_rounds();
  print_result(o, w,
               {{"events", std::to_string(inputs.events)},
                {"schedule_s", number(d.schedule_s)},
                {"inproc_s", number(inproc_s)},
                {"commits_s", array(d.commits_s)},
                {"spans", std::to_string(tr.trace.spans().size())}},
               metrics, attempted, failed);
  if (failed == 0) fs::remove_all(root);
  return failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    if (argc == 4 && std::string{argv[1]} == "--launch") {
      return launch_main(argv[2], argv[3]);
    }
    const options o = parse_args(argc, argv);
    const workload w = make_workload(o.workload, o.seed, o.size);
    const std::string root = o.work_dir + "/" + w.name + "-seed" +
                             std::to_string(o.seed) + "-" +
                             std::to_string(::getpid());
    std::filesystem::create_directories(o.work_dir);
    std::filesystem::remove_all(root);
    return o.trace ? run_trace(o, w, root) : run_timed(o, w, root);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
