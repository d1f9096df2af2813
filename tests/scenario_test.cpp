// Scenario acceptance harness: the repo's first *statistical* end-to-end
// layer. Each named time-varying scenario (workload::scenario) runs through
// the multi-round pipeline and the measured statistics must track the
// machine-readable ground truth the generator emits:
//
//   PrivCount noisy     — |value - truth| <= 6 sigma, with the published
//                         sigma equal to the independently re-derived
//                         dp::allocate_budget allocation (the analytically
//                         known noise bound; per-check alpha ~ 2e-9);
//   PrivCount noiseless — exact equality to ground truth;
//   PSC                 — the observed raw_count must not land in either
//                         1e-6 tail of the exact-DP distribution
//                         R(n_true) = Occupancy(n, b) + Binomial(T, 1/2)
//                         (stats::psc_cdf, the paper's §3.3 machinery);
//   PSC noiseless       — additionally raw_count <= n_true exactly
//                         (occupancy can only undercount).
//
// All checks run per scenario x per seed x per round, against deterministic
// seeds, so a pass is stable, and one distributed multi-process run per
// scenario pins byte-identity to the in-process reference (the full
// 5 x 3-seed x 2-protocol distributed matrix lives in
// tests/scenario_e2e_slow_test.cpp behind the [slow] label).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/cli/node_runner.h"
#include "src/cli/orchestrator.h"
#include "src/cli/workload_source.h"
#include "src/dp/allocation.h"
#include "src/stats/psc_ci.h"
#include "src/workload/scenario.h"
#include "tests/node_process.h"

namespace tormet::cli {
namespace {

constexpr std::uint64_t k_seeds[] = {3, 11, 29};

// -- tally parsing -----------------------------------------------------------

struct psc_round_tally {
  std::uint64_t raw_count = 0;
  std::uint64_t bins = 0;
  std::uint64_t noise_bits = 0;
};

[[nodiscard]] std::vector<psc_round_tally> parse_psc_rounds(
    const std::string& tally) {
  std::vector<psc_round_tally> rounds;
  std::istringstream in{tally};
  std::string line;
  while (std::getline(in, line)) {
    if (line == "protocol psc") {
      rounds.emplace_back();
      continue;
    }
    if (rounds.empty()) continue;
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    if (key == "raw_count") ls >> rounds.back().raw_count;
    if (key == "bins") ls >> rounds.back().bins;
    if (key == "noise_bits") ls >> rounds.back().noise_bits;
  }
  return rounds;
}

struct counter_entry {
  std::int64_t value = 0;
  double sigma = 0.0;
};

[[nodiscard]] std::vector<std::map<std::string, counter_entry>>
parse_privcount_rounds(const std::string& tally) {
  std::vector<std::map<std::string, counter_entry>> rounds;
  std::istringstream in{tally};
  std::string line;
  while (std::getline(in, line)) {
    if (line == "protocol privcount") {
      rounds.emplace_back();
      continue;
    }
    if (line.rfind("counter ", 0) != 0 || rounds.empty()) continue;
    std::istringstream ls{line};
    std::string key, name;
    counter_entry e;
    ls >> key >> name >> e.value >> e.sigma;
    rounds.back()[name] = e;
  }
  return rounds;
}

// -- plan + truth construction -----------------------------------------------

/// A small 2-day scenario deployment: 3 DCs, daily rounds, deterministic
/// seeds — large enough that every scenario's dynamics register (hundreds
/// of distinct clients, thousands of events) and small enough that the
/// whole matrix stays in the fast suite.
void set_scenario_workload(deployment_plan& plan, const std::string& name,
                           std::uint64_t seed) {
  plan.workload.kind = workload_kind::scenario;
  plan.workload.model = name;
  plan.workload.scale = 0.25;  // 64 resident clients
  plan.workload.events = 400;  // baseline actions/day
  plan.workload.gen_seed = seed;
  plan.workload.gen_days = 2;
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  plan.round_gap_s = 0;
  plan.rng_seed = seed * 1'000 + 17;
}

[[nodiscard]] deployment_plan privcount_scenario_plan(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool noise) {
  const trace_round_defaults defaults = defaults_for_scenario(name);
  deployment_plan plan = make_privcount_plan(3, 2, defaults.counters);
  plan.instruments = defaults.instruments;
  plan.psc_extractor = defaults.psc_extractor;
  plan.privcount_noise_enabled = noise;
  set_scenario_workload(plan, name, seed);
  return plan;
}

[[nodiscard]] deployment_plan psc_scenario_plan(const std::string& name,
                                                std::uint64_t seed,
                                                bool noise) {
  const trace_round_defaults defaults = defaults_for_scenario(name);
  deployment_plan plan = make_psc_plan(3, 2, 2'048);
  plan.round.group = crypto::group_backend::toy;
  plan.round.noise_enabled = noise;
  plan.psc_extractor = defaults.psc_extractor;
  set_scenario_workload(plan, name, seed);
  return plan;
}

/// The sidecar ground truth for a scenario plan, computed independently of
/// the pipeline under test.
[[nodiscard]] workload::scenario_truth truth_of(const deployment_plan& plan) {
  const workload::scenario_params params = scenario_params_of(plan);
  return workload::compute_scenario_truth(
      params, workload::generate_scenario_events(params), plan.instruments,
      {plan.psc_extractor}, plan.schedule_rounds, plan.round_duration_s,
      plan.round_gap_s);
}

[[nodiscard]] std::uint64_t truth_counter(
    const workload::scenario_round_truth& rt, const std::string& name) {
  for (const auto& [n, v] : rt.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "ground truth has no counter " << name;
  return 0;
}

// -- acceptance checks -------------------------------------------------------

void check_privcount_tracks_truth(const deployment_plan& plan,
                                  const std::string& tally,
                                  const std::string& label) {
  const workload::scenario_truth truth = truth_of(plan);
  const std::vector<std::map<std::string, counter_entry>> rounds =
      parse_privcount_rounds(tally);
  ASSERT_EQ(rounds.size(), truth.rounds.size()) << label;

  // Re-derive the noise bound independently: the published sigma must be
  // exactly the equal-relative-noise allocation of the plan's budget.
  std::vector<dp::counter_request> requests;
  for (const auto& c : plan.counters) {
    requests.push_back({c.name, c.sensitivity, c.expected_value});
  }
  const std::vector<dp::counter_allocation> alloc =
      dp::allocate_budget(plan.privacy, requests);

  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < plan.counters.size(); ++i) {
      const std::string& name = plan.counters[i].name;
      const auto it = rounds[r].find(name);
      ASSERT_NE(it, rounds[r].end()) << label << ": round " << r
                                     << " tally has no counter " << name;
      const auto tv =
          static_cast<std::int64_t>(truth_counter(truth.rounds[r], name));
      if (!plan.privcount_noise_enabled) {
        EXPECT_EQ(it->second.value, tv)
            << label << ": noiseless round " << r << " counter " << name;
        EXPECT_EQ(it->second.sigma, 0.0) << label;
        continue;
      }
      EXPECT_DOUBLE_EQ(it->second.sigma, alloc[i].sigma)
          << label << ": published sigma diverges from the re-derived "
          << "allocation for " << name;
      const double band = 6.0 * alloc[i].sigma;  // per-check alpha ~ 2e-9
      EXPECT_LE(std::abs(static_cast<double>(it->second.value - tv)), band)
          << label << ": round " << r << " counter " << name << " = "
          << it->second.value << " strays past 6 sigma from truth " << tv;
    }
  }
}

void check_psc_tracks_truth(const deployment_plan& plan,
                            const std::string& tally,
                            const std::string& label) {
  const workload::scenario_truth truth = truth_of(plan);
  const std::vector<psc_round_tally> rounds = parse_psc_rounds(tally);
  ASSERT_EQ(rounds.size(), truth.rounds.size()) << label;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    ASSERT_EQ(truth.rounds[r].distinct.size(), 1u);
    const std::uint64_t n_true = truth.rounds[r].distinct[0].second;
    const psc_round_tally& t = rounds[r];
    EXPECT_EQ(t.bins, plan.round.bins) << label;
    const stats::psc_ci_params p{t.bins, t.noise_bits};
    // Two-sided exact-DP test: under the true cardinality, the observed
    // raw count must not land in either extreme tail.
    constexpr double alpha = 1e-6;
    EXPECT_GE(stats::psc_cdf(t.raw_count, n_true, p), alpha)
        << label << ": round " << r << " raw_count " << t.raw_count
        << " implausibly low for true distinct count " << n_true;
    if (t.raw_count > 0) {
      EXPECT_GE(1.0 - stats::psc_cdf(t.raw_count - 1, n_true, p), alpha)
          << label << ": round " << r << " raw_count " << t.raw_count
          << " implausibly high for true distinct count " << n_true;
    }
    if (!plan.round.noise_enabled) {
      EXPECT_EQ(t.noise_bits, 0u) << label;
      // Bin occupancy can only undercount the true distinct total.
      EXPECT_LE(t.raw_count, n_true) << label << ": round " << r;
    }
  }
}

// -- the in-process acceptance matrix ----------------------------------------

TEST(ScenarioAcceptanceTest, PrivcountNoisedTracksGroundTruth) {
  for (const auto& name : workload::scenario_names()) {
    for (const std::uint64_t seed : k_seeds) {
      const deployment_plan plan = privcount_scenario_plan(name, seed, true);
      const std::string label = name + "/seed" + std::to_string(seed);
      check_privcount_tracks_truth(plan, run_reference_round(plan), label);
    }
  }
}

TEST(ScenarioAcceptanceTest, PrivcountNoiselessMatchesGroundTruthExactly) {
  for (const auto& name : workload::scenario_names()) {
    const deployment_plan plan = privcount_scenario_plan(name, 7, false);
    check_privcount_tracks_truth(plan, run_reference_round(plan), name);
  }
}

TEST(ScenarioAcceptanceTest, PscNoisedStaysInsideExactDpBand) {
  for (const auto& name : workload::scenario_names()) {
    for (const std::uint64_t seed : k_seeds) {
      const deployment_plan plan = psc_scenario_plan(name, seed, true);
      const std::string label = name + "/seed" + std::to_string(seed);
      check_psc_tracks_truth(plan, run_reference_round(plan), label);
    }
  }
}

TEST(ScenarioAcceptanceTest, PscNoiselessStaysWithinOccupancyBound) {
  for (const auto& name : workload::scenario_names()) {
    const deployment_plan plan = psc_scenario_plan(name, 7, false);
    check_psc_tracks_truth(plan, run_reference_round(plan), name);
  }
}

// Scenario dynamics must actually register in the measurements — a flat
// generator would pass the band checks trivially.
TEST(ScenarioAcceptanceTest, SurgeScenariosMoveRoundTotals) {
  for (const std::string name : {"botnet_surge", "flash_crowd"}) {
    const deployment_plan plan = privcount_scenario_plan(name, 7, false);
    const workload::scenario_truth truth = truth_of(plan);
    ASSERT_EQ(truth.rounds.size(), 2u);
    const std::uint64_t base =
        truth_counter(truth.rounds[0], "entry/connections");
    const std::uint64_t surged =
        truth_counter(truth.rounds[1], "entry/connections");
    EXPECT_GT(surged, base + base / 2)
        << name << ": surge day did not lift entry connections";
  }
  // country_block: the censored population vanishes after day 0, so day 1
  // has fewer distinct clients even with the late migration inflow.
  const deployment_plan plan = psc_scenario_plan("country_block", 7, false);
  const workload::scenario_truth truth = truth_of(plan);
  ASSERT_EQ(truth.rounds.size(), 2u);
  EXPECT_LT(truth.rounds[1].distinct[0].second,
            truth.rounds[0].distinct[0].second);
}

// DC-side ingest parallelism is an execution detail: the tally bytes must
// not depend on how a DC shards or threads its event plane.
TEST(ScenarioAcceptanceTest, TallyInvariantUnderShardingAndIngestThreads) {
  for (const auto& name : workload::scenario_names()) {
    deployment_plan plan = privcount_scenario_plan(name, 11, true);
    const std::string baseline = run_reference_round(plan);
    for (const auto& [shards, threads] :
         std::vector<std::pair<std::size_t, std::size_t>>{{4, 0}, {4, 2}}) {
      plan.dc_shards = shards;
      plan.dc_ingest_threads = threads;
      EXPECT_EQ(run_reference_round(plan), baseline)
          << name << ": tally changed under dc_shards=" << shards
          << " dc_ingest_threads=" << threads;
    }
  }
}

// -- sidecar + plan format ---------------------------------------------------

TEST(ScenarioGroundTruthTest, SidecarRoundTripsAndMatchesDirectComputation) {
  workload::scenario_params params;
  params.name = "country_block";
  params.dcs = 3;
  params.scale = 0.25;
  params.events = 300;
  params.seed = 5;
  params.days = 2;

  workdir_guard dir;
  const std::vector<std::size_t> counts =
      workload::write_scenario_dir(params, dir.path());
  ASSERT_EQ(counts.size(), 3u);
  const workload::scenario_truth loaded =
      workload::load_ground_truth(dir.path() + "/ground_truth.cfg");
  EXPECT_EQ(loaded.scenario, "country_block");
  EXPECT_EQ(loaded.seed, 5u);
  ASSERT_EQ(loaded.rounds.size(), 2u);

  const workload::scenario_measurements m =
      workload::measurements_for_scenario(params.name);
  const workload::scenario_truth direct = workload::compute_scenario_truth(
      params, workload::generate_scenario_events(params), m.instruments,
      {m.psc_extractor}, 2, k_seconds_per_day, 0);
  EXPECT_EQ(serialize_ground_truth(loaded), serialize_ground_truth(direct));

  // serialize -> parse is lossless.
  const workload::scenario_truth reparsed =
      workload::parse_ground_truth(serialize_ground_truth(loaded));
  EXPECT_EQ(serialize_ground_truth(reparsed), serialize_ground_truth(loaded));
}

TEST(ScenarioPlanTest, ScenarioWorkloadRoundTripsThroughPlanText) {
  deployment_plan plan = privcount_scenario_plan("flash_crowd", 9, true);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9'400 + i);
  }
  const std::string text = serialize_plan(plan);
  EXPECT_NE(text.find("workload scenario flash_crowd,"), std::string::npos);
  const deployment_plan reparsed = parse_plan(text);
  EXPECT_EQ(serialize_plan(reparsed), text);
  EXPECT_EQ(reparsed.workload.kind, workload_kind::scenario);
  EXPECT_EQ(reparsed.workload.model, "flash_crowd");
  EXPECT_EQ(reparsed.workload.gen_days, 2u);

  // days == 1 stays an omitted trailing field, like generate's.
  plan.workload.gen_days = 1;
  plan.schedule_rounds = 1;
  const deployment_plan single = parse_plan(serialize_plan(plan));
  EXPECT_EQ(single.workload.gen_days, 1u);
}

// -- one distributed multi-process run per scenario --------------------------

TEST(ScenarioDistributedTest, EveryScenarioRunsDistributedByteIdentical) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  for (const auto& name : workload::scenario_names()) {
    deployment_plan plan = privcount_scenario_plan(name, 3, true);
    workdir_guard workdir;
    plan.tally_path = workdir.path() + "/tally.out";
    assign_free_ports(plan);

    const distributed_round_result result =
        run_distributed_round(plan, bin, workdir.path(), 60'000);
    for (const auto& n : result.nodes) {
      EXPECT_EQ(n.exit_code, 0) << name << ": node " << n.id << " failed";
    }
    EXPECT_EQ(result.tally, run_reference_round(plan)) << name;
    check_privcount_tracks_truth(plan, result.tally, name + "/distributed");
  }
}

}  // namespace
}  // namespace tormet::cli
