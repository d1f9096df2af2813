// tormet_orchestrator: spawns and coordinates a full protocol round across
// real OS processes (one tormet_node per role) over TCP, collects the
// final tally, and — with --check-inproc — verifies it is byte-identical
// to the in-process reference round with the same seeds. CI runs exactly
// that as its distributed-round gate.
//
//   tormet_orchestrator [--config plan.cfg] [--protocol psc|privcount]
//                       [--dcs N] [--cps N] [--sks N] [--bins B]
//                       [--seed S] [--items-per-dc N] [--shared-items N]
//                       [--group toy|p256] [--noise on|off]
//                       [--timeout-s N] [--node-binary PATH] [--durable]
//                       [--check-inproc] [--keep-workdir] [--verbose]
//
// Without --config a plan is synthesized from the flags (defaults: PSC,
// 4 DCs, 3 CPs, 1024 bins, toy group). --durable gives the TS a
// write-ahead op-log under the workdir and restarts crashed (exit 42)
// nodes: the TS resumes from its log, a peer re-derives its rounds. Exits
// 0 on success, 1 on any node failure, timeout, or tally mismatch.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "src/cli/deployment_plan.h"
#include "src/cli/orchestrator.h"
#include "src/util/logging.h"

namespace {

void usage() {
  std::cerr
      << "usage: tormet_orchestrator [--config plan.cfg]\n"
         "         [--protocol psc|privcount] [--dcs N] [--cps N] [--sks N]\n"
         "         [--bins B] [--seed S] [--items-per-dc N] [--shared-items N]\n"
         "         [--group toy|p256] [--noise on|off] [--timeout-s N]\n"
         "         [--node-binary PATH] [--durable] [--check-inproc]\n"
         "         [--keep-workdir] [--verbose]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tormet;

  std::string config_path;
  std::string protocol = "psc";
  std::size_t dcs = 4, cps = 3, sks = 3;
  std::uint64_t bins = 1024, seed = 3141;
  std::uint64_t items_per_dc = 40, shared_items = 7;
  std::string group = "toy";
  bool noise = true;
  bool check_inproc = false;
  bool keep_workdir = false;
  bool durable = false;
  int timeout_s = 120;
  std::string node_binary;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") config_path = next();
    else if (arg == "--protocol") protocol = next();
    else if (arg == "--dcs") dcs = std::strtoul(next(), nullptr, 10);
    else if (arg == "--cps") cps = std::strtoul(next(), nullptr, 10);
    else if (arg == "--sks") sks = std::strtoul(next(), nullptr, 10);
    else if (arg == "--bins") bins = std::strtoul(next(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoul(next(), nullptr, 10);
    else if (arg == "--items-per-dc") items_per_dc = std::strtoul(next(), nullptr, 10);
    else if (arg == "--shared-items") shared_items = std::strtoul(next(), nullptr, 10);
    else if (arg == "--group") group = next();
    else if (arg == "--noise") noise = std::string_view{next()} == "on";
    else if (arg == "--timeout-s") timeout_s = static_cast<int>(std::strtol(next(), nullptr, 10));
    else if (arg == "--node-binary") node_binary = next();
    else if (arg == "--durable") durable = true;
    else if (arg == "--check-inproc") check_inproc = true;
    else if (arg == "--keep-workdir") keep_workdir = true;
    else if (arg == "--verbose") set_log_level(log_level::info);
    else {
      usage();
      return 2;
    }
  }

  try {
    cli::deployment_plan plan;
    if (!config_path.empty()) {
      plan = cli::load_plan(config_path);
    } else if (protocol == "psc") {
      plan = cli::make_psc_plan(dcs, cps, bins);
      plan.round.group = group == "p256" ? crypto::group_backend::p256
                                         : crypto::group_backend::toy;
      plan.round.noise_enabled = noise;
      plan.items_per_dc = items_per_dc;
      plan.shared_items = shared_items;
      plan.rng_seed = seed;
    } else if (protocol == "privcount") {
      plan = cli::make_privcount_plan(
          dcs, sks,
          {{"entry/connections", 12.0, 100.0}, {"entry/circuits", 651.0, 100.0}});
      plan.privcount_noise_enabled = noise;
      plan.rng_seed = seed;
    } else {
      usage();
      return 2;
    }

    if (node_binary.empty()) node_binary = cli::sibling_node_binary();
    if (node_binary.empty()) {
      std::cerr << "tormet_orchestrator: cannot locate tormet_node "
                   "(pass --node-binary)\n";
      return 2;
    }

    const std::string workdir = cli::make_round_workdir();
    plan.tally_path = workdir + "/tally.out";
    if (durable) plan.durable_dir = workdir + "/durable";
    cli::assign_free_ports(plan);

    std::cerr << "orchestrator: spawning " << plan.nodes.size() << " "
              << plan.protocol << " node processes (workdir " << workdir
              << ")\n";
    const cli::distributed_round_result result =
        cli::run_distributed_round(plan, node_binary, workdir, timeout_s * 1000);
    std::cout << result.tally;
    if (!result.summary.empty()) {
      std::cerr << "orchestrator: deployment summary\n" << result.summary;
    }
    for (const auto& n : result.nodes) {
      if (n.restarts > 0) {
        std::cerr << "orchestrator: node " << n.id << " was restarted "
                  << n.restarts << " time(s) and recovered\n";
      }
    }

    int rc = 0;
    if (check_inproc) {
      const std::string reference = cli::run_reference_round(plan);
      if (reference == result.tally) {
        std::cerr << "orchestrator: distributed tally is byte-identical to "
                     "the in-process round\n";
      } else {
        std::cerr << "orchestrator: TALLY MISMATCH\n--- distributed ---\n"
                  << result.tally << "--- in-process ---\n"
                  << reference;
        rc = 1;
      }
    }
    if (keep_workdir || rc != 0) {
      std::cerr << "orchestrator: round artifacts kept under " << workdir << "\n";
    } else {
      std::error_code ec;
      std::filesystem::remove_all(workdir, ec);
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "tormet_orchestrator: " << e.what() << "\n";
    return 1;
  }
}
