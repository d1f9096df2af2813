// tormet_tracegen: renders the workload models into deterministic per-DC
// event-trace files and a ready-to-run deployment plan, so every paper
// workload can drive a real multi-process round end to end:
//
//   # generate: traces + plan.cfg into --out
//   tormet_tracegen --model browsing --out /tmp/traces --dcs 4
//   tormet_orchestrator --config /tmp/traces/plan.cfg --check-inproc
//
//   # feed: stream an existing trace file to a DC's event socket
//   tormet_tracegen --feed 127.0.0.1:9100 --in /tmp/traces/dc-0.trace
//
// Generation is a pure function of (--model, --dcs, --scale, --events,
// --seed): the same flags reproduce byte-identical traces anywhere. The
// emitted plan measures the model's defaults (cli::defaults_for_model);
// edit plan.cfg to change counters, noise, or topology.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "src/cli/deployment_plan.h"
#include "src/cli/workload_source.h"
#include "src/tor/trace_socket.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_gen.h"

namespace {

void usage() {
  std::cerr
      << "usage: tormet_tracegen --out DIR [--model "
         "zipf|browsing|onion|population|mixed]\n"
         "         [--dcs N] [--scale X] [--events N] [--seed S] [--days N]\n"
         "         [--relays N] [--sample-prob P]\n"
         "         [--protocol psc|privcount] [--cps N] [--sks N]\n"
         "         [--bins B] [--group toy|p256] [--port-base P] [--no-plan]\n"
         "       tormet_tracegen --scenario flash_crowd|diurnal|botnet_surge|"
         "relay_churn|country_block\n"
         "         --out DIR [--dcs N] [--scale X] [--events N] [--seed S] "
         "[--days N] [...]\n"
         "       tormet_tracegen --feed HOST:PORT --in TRACE_FILE\n"
         "\n"
         "--days N renders N days of population churn into one trace per DC\n"
         "and declares an N-round daily schedule in the emitted plan, so the\n"
         "Table 5 multi-day unique-client measurements run end to end.\n"
         "\n"
         "--scenario renders a named time-varying workload (see\n"
         "docs/SCENARIOS.md): traces, a ground_truth.cfg sidecar with the\n"
         "per-round true statistics, and a plan whose DCs materialize the\n"
         "scenario deterministically (workload scenario ...).\n"
         "\n"
         "--relays N emits a `workload relays` plan instead of a trace plan:\n"
         "each DC embeds N/dcs always-on relay stats agents that publish\n"
         "per-window .pub files, aggregated back into the sharded ingest\n"
         "plane (see docs/RELAY_AGENT.md). --sample-prob P (default 1.0)\n"
         "sets the per-circuit sampling probability.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tormet;

  workload::trace_gen_params params;
  std::string scenario;
  bool scale_given = false;
  std::string out_dir;
  std::string feed_target;
  std::string feed_file;
  std::string protocol = "privcount";
  std::size_t cps = 3, sks = 3;
  std::uint64_t bins = 4096;
  std::uint64_t relays = 0;
  double sample_prob = 1.0;
  std::string group = "toy";
  unsigned port_base = 7450;
  bool write_plan = true;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") out_dir = next();
    else if (arg == "--model") params.model = next();
    else if (arg == "--scenario") scenario = next();
    else if (arg == "--dcs") params.dcs = std::strtoul(next(), nullptr, 10);
    else if (arg == "--scale") {
      params.scale = std::strtod(next(), nullptr);
      scale_given = true;
    }
    else if (arg == "--events") params.events = std::strtoul(next(), nullptr, 10);
    else if (arg == "--seed") params.seed = std::strtoul(next(), nullptr, 10);
    else if (arg == "--days") params.days = std::strtoul(next(), nullptr, 10);
    else if (arg == "--protocol") protocol = next();
    else if (arg == "--cps") cps = std::strtoul(next(), nullptr, 10);
    else if (arg == "--sks") sks = std::strtoul(next(), nullptr, 10);
    else if (arg == "--bins") bins = std::strtoul(next(), nullptr, 10);
    else if (arg == "--relays") relays = std::strtoul(next(), nullptr, 10);
    else if (arg == "--sample-prob") sample_prob = std::strtod(next(), nullptr);
    else if (arg == "--group") group = next();
    else if (arg == "--port-base") port_base = static_cast<unsigned>(
                                       std::strtoul(next(), nullptr, 10));
    else if (arg == "--no-plan") write_plan = false;
    else if (arg == "--feed") feed_target = next();
    else if (arg == "--in") feed_file = next();
    else {
      usage();
      return 2;
    }
  }

  try {
    // -- feed mode ----------------------------------------------------------
    if (!feed_target.empty() || !feed_file.empty()) {
      if (feed_target.empty() || feed_file.empty()) {
        usage();
        return 2;
      }
      const std::size_t colon = feed_target.rfind(':');
      if (colon == std::string::npos) {
        std::cerr << "tormet_tracegen: --feed expects HOST:PORT\n";
        return 2;
      }
      const std::string host = feed_target.substr(0, colon);
      const auto port = static_cast<std::uint16_t>(
          std::strtoul(feed_target.c_str() + colon + 1, nullptr, 10));
      const std::size_t sent =
          tor::stream_trace_to_socket(host, port, feed_file);
      std::cerr << "tormet_tracegen: streamed " << sent << " events to "
                << feed_target << "\n";
      return 0;
    }

    // -- generate mode: traces (+ a scenario's ground truth), then a plan ---
    if (out_dir.empty()) {
      usage();
      return 2;
    }
    const bool is_scenario = !scenario.empty();
    if (is_scenario ? !workload::is_known_scenario(scenario)
                    : !workload::is_known_trace_model(params.model)) {
      std::cerr << "tormet_tracegen: unknown "
                << (is_scenario ? "scenario '" + scenario
                                : "model '" + params.model)
                << "'\n";
      return 2;
    }
    if (params.days < 1) {
      std::cerr << "tormet_tracegen: --days must be >= 1\n";
      return 2;
    }
    // A scenario's --scale is a client-population scale; the trace models'
    // network_scale default would render a minimal population.
    if (is_scenario && !scale_given) params.scale = 1.0;
    std::filesystem::create_directories(out_dir);
    std::vector<std::size_t> counts;
    if (is_scenario) {
      workload::scenario_params sp;
      sp.name = scenario;
      sp.dcs = params.dcs;
      sp.scale = params.scale;
      sp.events = params.events;
      sp.seed = params.seed;
      sp.days = params.days;
      counts = workload::write_scenario_dir(sp, out_dir);
    } else {
      counts = workload::write_trace_dir(params, out_dir);
    }
    std::size_t total = 0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
      std::cerr << "  dc-" << k << ".trace: " << counts[k] << " events\n";
      total += counts[k];
    }
    std::cerr << "tormet_tracegen: "
              << (is_scenario ? "scenario " + scenario
                              : "model " + params.model)
              << ", " << total << " events across " << params.dcs
              << " DCs -> " << out_dir
              << (is_scenario ? " (+ ground_truth.cfg)\n" : "\n");
    if (!write_plan) return 0;

    const cli::trace_round_defaults defaults =
        is_scenario ? cli::defaults_for_scenario(scenario)
                    : cli::defaults_for_model(params.model);
    cli::deployment_plan plan;
    if (protocol == "psc") {
      plan = cli::make_psc_plan(params.dcs, cps, bins);
      plan.round.group = group == "p256" ? crypto::group_backend::p256
                                         : crypto::group_backend::toy;
      plan.counters = defaults.counters;
    } else if (protocol == "privcount") {
      plan = cli::make_privcount_plan(params.dcs, sks, defaults.counters);
    } else {
      usage();
      return 2;
    }
    plan.psc_extractor = defaults.psc_extractor;
    plan.instruments = defaults.instruments;
    // Scenario and relay plans have their DCs materialize the workload
    // themselves (a pure function of the plan); a relay plan also detours
    // every window through relays/dcs embedded stats agents and
    // publish-file aggregation. Their trace files are for inspection and
    // socket feeding.
    plan.workload.kind = is_scenario  ? cli::workload_kind::scenario
                         : relays > 0 ? cli::workload_kind::relays
                                      : cli::workload_kind::trace;
    if (plan.workload.kind == cli::workload_kind::trace) {
      plan.workload.trace_dir = std::filesystem::absolute(out_dir).string();
    } else {
      plan.workload.model = is_scenario ? scenario : params.model;
      plan.workload.scale = params.scale;
      plan.workload.events = params.events;
      plan.workload.gen_seed = params.seed;
      plan.workload.gen_days = params.days;
    }
    if (plan.workload.kind == cli::workload_kind::relays) {
      plan.workload.relay_count = relays;
      plan.sample_prob = sample_prob;
    }
    if (params.days > 1) {
      // One daily measurement round per generated day: the node processes
      // stay up across the schedule and window the workload by sim time.
      plan.schedule_rounds = static_cast<std::uint32_t>(params.days);
      plan.round_duration_s = tormet::k_seconds_per_day;
      plan.round_gap_s = 0;
    }
    plan.rng_seed = params.seed;
    plan.tally_path =
        (std::filesystem::absolute(out_dir) / "tally.out").string();
    for (std::size_t k = 0; k < plan.nodes.size(); ++k) {
      plan.nodes[k].port = static_cast<std::uint16_t>(port_base + k);
    }
    const std::string plan_path = out_dir + "/plan.cfg";
    cli::save_plan(plan, plan_path);
    std::cerr << "tormet_tracegen: wrote " << plan_path << " ("
              << plan.protocol << ", " << plan.nodes.size() << " nodes, ports "
              << port_base << "..)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tormet_tracegen: " << e.what() << "\n";
    return 1;
  }
}
