// The full scenario acceptance matrix, distributed: every named scenario x
// 3 seeds x {PSC, PrivCount} runs as a real multi-process deployment
// (fork/exec tormet_node per role, TCP fabric, 2 daily rounds), and each
// run must be byte-identical to the in-process reference AND land inside
// the analytically derived noise band of the scenario's ground truth. The
// fast subset (in-process matrix + one distributed run per scenario) lives
// in tests/scenario_test.cpp; this is the [slow] CI gate behind ISSUE 9's
// "all scenarios through the live pipeline for >= 3 seeds each".
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/cli/orchestrator.h"
#include "src/cli/workload_source.h"
#include "src/dp/allocation.h"
#include "src/stats/psc_ci.h"
#include "src/workload/scenario.h"
#include "tests/node_process.h"

namespace tormet::cli {
namespace {

constexpr std::uint64_t k_seeds[] = {3, 11, 29};

void set_scenario_workload(deployment_plan& plan, const std::string& name,
                           std::uint64_t seed) {
  plan.workload.kind = workload_kind::scenario;
  plan.workload.model = name;
  plan.workload.scale = 0.25;
  plan.workload.events = 400;
  plan.workload.gen_seed = seed;
  plan.workload.gen_days = 2;
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  plan.round_gap_s = 0;
  plan.rng_seed = seed * 1'000 + 17;
}

[[nodiscard]] workload::scenario_truth truth_of(const deployment_plan& plan) {
  const workload::scenario_params params = scenario_params_of(plan);
  return workload::compute_scenario_truth(
      params, workload::generate_scenario_events(params), plan.instruments,
      {plan.psc_extractor}, plan.schedule_rounds, plan.round_duration_s,
      plan.round_gap_s);
}

[[nodiscard]] std::string run_and_check_identity(const deployment_plan& base,
                                                 const std::string& bin,
                                                 const std::string& label) {
  deployment_plan plan = base;
  workdir_guard workdir;
  plan.tally_path = workdir.path() + "/tally.out";
  assign_free_ports(plan);
  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 120'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << label << ": node " << n.id << " failed";
  }
  EXPECT_EQ(result.tally, run_reference_round(plan))
      << label << ": distributed tally diverges from in-process reference";
  return result.tally;
}

TEST(ScenarioE2eSlowTest, PrivcountDistributedMatrixTracksGroundTruth) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  for (const auto& name : workload::scenario_names()) {
    for (const std::uint64_t seed : k_seeds) {
      const trace_round_defaults defaults = defaults_for_scenario(name);
      deployment_plan plan = make_privcount_plan(3, 2, defaults.counters);
      plan.instruments = defaults.instruments;
      plan.psc_extractor = defaults.psc_extractor;
      set_scenario_workload(plan, name, seed);
      const std::string label =
          name + "/privcount/seed" + std::to_string(seed);

      const std::string tally = run_and_check_identity(plan, bin, label);
      const workload::scenario_truth truth = truth_of(plan);

      std::vector<dp::counter_request> requests;
      for (const auto& c : plan.counters) {
        requests.push_back({c.name, c.sensitivity, c.expected_value});
      }
      const std::vector<dp::counter_allocation> alloc =
          dp::allocate_budget(plan.privacy, requests);

      // Parse `counter <name> <value> <sigma>` per round and band-check.
      std::istringstream in{tally};
      std::string line;
      std::size_t round = 0;
      bool in_round = false;
      std::size_t checked = 0;
      while (std::getline(in, line)) {
        if (line == "protocol privcount") {
          if (in_round) ++round;
          in_round = true;
          continue;
        }
        if (!in_round || line.rfind("counter ", 0) != 0) continue;
        std::istringstream ls{line};
        std::string key, cname;
        std::int64_t value = 0;
        double sigma = 0.0;
        ls >> key >> cname >> value >> sigma;
        ASSERT_LT(round, truth.rounds.size()) << label;
        std::int64_t tv = -1;
        for (const auto& [n, v] : truth.rounds[round].counters) {
          if (n == cname) tv = static_cast<std::int64_t>(v);
        }
        ASSERT_GE(tv, 0) << label << ": no ground truth for " << cname;
        double expected_sigma = -1.0;
        for (const auto& a : alloc) {
          if (a.name == cname) expected_sigma = a.sigma;
        }
        ASSERT_GE(expected_sigma, 0.0) << label;
        EXPECT_DOUBLE_EQ(sigma, expected_sigma) << label << " " << cname;
        EXPECT_LE(std::abs(static_cast<double>(value - tv)), 6.0 * sigma)
            << label << ": round " << round << " counter " << cname << " = "
            << value << " strays past 6 sigma from truth " << tv;
        ++checked;
      }
      EXPECT_EQ(checked, plan.counters.size() * truth.rounds.size()) << label;
    }
  }
}

TEST(ScenarioE2eSlowTest, PscDistributedMatrixStaysInsideExactDpBand) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  for (const auto& name : workload::scenario_names()) {
    for (const std::uint64_t seed : k_seeds) {
      const trace_round_defaults defaults = defaults_for_scenario(name);
      deployment_plan plan = make_psc_plan(3, 2, 2'048);
      plan.round.group = crypto::group_backend::toy;
      plan.psc_extractor = defaults.psc_extractor;
      set_scenario_workload(plan, name, seed);
      const std::string label = name + "/psc/seed" + std::to_string(seed);

      const std::string tally = run_and_check_identity(plan, bin, label);
      const workload::scenario_truth truth = truth_of(plan);

      std::istringstream in{tally};
      std::string line;
      std::size_t round = 0;
      std::uint64_t raw_count = 0, bins = 0, noise_bits = 0;
      bool have_round = false;
      std::size_t checked = 0;
      const auto flush = [&] {
        if (!have_round) return;
        ASSERT_LT(round, truth.rounds.size()) << label;
        ASSERT_EQ(truth.rounds[round].distinct.size(), 1u) << label;
        const std::uint64_t n_true = truth.rounds[round].distinct[0].second;
        const stats::psc_ci_params p{bins, noise_bits};
        constexpr double alpha = 1e-6;
        EXPECT_GE(stats::psc_cdf(raw_count, n_true, p), alpha)
            << label << ": round " << round << " raw_count " << raw_count
            << " implausibly low for truth " << n_true;
        if (raw_count > 0) {
          EXPECT_GE(1.0 - stats::psc_cdf(raw_count - 1, n_true, p), alpha)
              << label << ": round " << round << " raw_count " << raw_count
              << " implausibly high for truth " << n_true;
        }
        ++round;
        ++checked;
        have_round = false;
      };
      while (std::getline(in, line)) {
        if (line == "protocol psc") {
          flush();
          have_round = true;
          continue;
        }
        std::istringstream ls{line};
        std::string key;
        ls >> key;
        if (key == "raw_count") ls >> raw_count;
        if (key == "bins") ls >> bins;
        if (key == "noise_bits") ls >> noise_bits;
      }
      flush();
      EXPECT_EQ(checked, truth.rounds.size()) << label;
    }
  }
}

/// Extracts DC `id`'s `dc <id> reported ... excluded E rejoined J` line
/// from the summary sidecar (empty string if absent).
[[nodiscard]] std::string dc_summary_line(const std::string& summary,
                                          net::node_id id) {
  const std::string prefix = "dc " + std::to_string(id) + " ";
  const std::size_t at = summary.find(prefix);
  if (at == std::string::npos) return {};
  return summary.substr(at, summary.find('\n', at) - at);
}

/// The relay_churn scenario's dropouts are SCHEDULED darkness, not process
/// faults: with 2 DCs over 4 daily rounds, DC 0 is dark for all of round 2
/// and DC 1 for all of round 4. The TS must exclude each dark DC for
/// exactly its dark round (and re-admit DC 0 at the round-3 boundary), the
/// exclusions must land in the summary sidecar, and the distributed tally
/// must stay byte-identical to the in-process reference applying the same
/// churn — for both protocols.
TEST(ScenarioE2eSlowTest, RelayChurnDropoutsAreExcludedAndReadmitted) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  const trace_round_defaults defaults = defaults_for_scenario("relay_churn");
  for (const std::string protocol : {"psc", "privcount"}) {
    deployment_plan plan = protocol == "psc"
                               ? make_psc_plan(2, 2, 2'048)
                               : make_privcount_plan(2, 2, defaults.counters);
    if (protocol == "psc") {
      plan.round.group = crypto::group_backend::toy;
    } else {
      plan.instruments = defaults.instruments;
    }
    plan.psc_extractor = defaults.psc_extractor;
    set_scenario_workload(plan, "relay_churn", 7);
    plan.workload.gen_days = 4;
    plan.schedule_rounds = 4;

    workdir_guard workdir;
    plan.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(plan);
    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir.path(), 120'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << protocol << ": node " << n.id << " failed";
    }
    EXPECT_EQ(result.tally, run_reference_round(plan))
        << protocol
        << ": scheduled-churn distributed tally diverges from reference";

    // DC 0 went dark in round 2 and came back for round 3; DC 1 went dark
    // in round 4 and the schedule ended before it could rejoin.
    const std::vector<net::node_id> dc_ids = plan.ids_with(
        protocol == "psc" ? node_role::psc_dc : node_role::privcount_dc);
    ASSERT_EQ(dc_ids.size(), 2u);
    const std::string dc0 = dc_summary_line(result.summary, dc_ids[0]);
    const std::string dc1 = dc_summary_line(result.summary, dc_ids[1]);
    EXPECT_NE(dc0.find("missed 1"), std::string::npos)
        << protocol << ": " << dc0;
    EXPECT_NE(dc0.find("excluded 1"), std::string::npos)
        << protocol << ": " << dc0;
    EXPECT_NE(dc0.find("rejoined 1"), std::string::npos)
        << protocol << ": " << dc0;
    EXPECT_NE(dc1.find("missed 1"), std::string::npos)
        << protocol << ": " << dc1;
    EXPECT_NE(dc1.find("excluded 1"), std::string::npos)
        << protocol << ": " << dc1;
    EXPECT_NE(dc1.find("rejoined 0"), std::string::npos)
        << protocol << ": " << dc1;
  }
}

}  // namespace
}  // namespace tormet::cli
