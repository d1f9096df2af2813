// The relay-agent e2e gate: a 200-relay simulated deployment (4 DC
// processes x 50 embedded stats agents each) streams a 2-day generated
// workload through per-window .pub publishes and many-publisher
// aggregation into the sharded DC ingest plane, and the resulting tally
// must be byte-identical to the single-cursor in-process reference — for
// both protocols at sample_prob 1.0, and for a sampled run against the
// sampling-filtered reference. The sampled run's fleet counters (surfaced
// through the TS `.summary` sidecar) must land inside the analytically
// derived per-circuit binomial band.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/cli/orchestrator.h"
#include "src/cli/workload_source.h"
#include "src/relay/stats_agent.h"
#include "src/tor/event_shard.h"
#include "tests/node_process.h"

namespace tormet::cli {
namespace {

constexpr std::uint64_t k_fleet = 200;  // 4 DCs x 50 embedded agents

void set_relays_workload(deployment_plan& plan, double sample_prob) {
  plan.workload.kind = workload_kind::relays;
  plan.workload.relay_count = k_fleet;
  plan.workload.model = "mixed";
  // Miniature mixed-model network (same knob distributed_test uses): ~13k
  // events per DC per 2-day trace — enough to exercise every agent in a
  // 50-per-DC fleet without the full population-scale generation cost.
  plan.workload.scale = 2e-4;
  plan.workload.events = 2'000;
  plan.workload.gen_seed = 41;
  plan.workload.gen_days = 2;
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  plan.round_gap_s = 0;
  plan.sample_prob = sample_prob;
  plan.dc_shards = 4;
  plan.dc_ingest_threads = 2;
  plan.rng_seed = 1041;
}

[[nodiscard]] distributed_round_result run_relay_round(
    const deployment_plan& base, const std::string& bin,
    const std::string& workdir) {
  deployment_plan plan = base;
  plan.tally_path = workdir + "/tally.out";
  assign_free_ports(plan);
  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir, 180'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  return result;
}

/// Sums one numeric field across every `dc_stats <id> relay_fleet ...`
/// summary line (returns -1 if no such line exists).
[[nodiscard]] std::int64_t sum_fleet_field(const std::string& summary,
                                           const std::string& field) {
  std::int64_t total = -1;
  std::istringstream in{summary};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("dc_stats ", 0) != 0 ||
        line.find(" relay_fleet ") == std::string::npos) {
      continue;
    }
    std::istringstream ls{line};
    std::string word;
    while (ls >> word) {
      if (word != field) continue;
      std::int64_t value = 0;
      if (ls >> value) total = (total < 0 ? 0 : total) + value;
      break;
    }
  }
  return total;
}

TEST(RelayE2eSlowTest, PscFleetAtFullSamplingIsByteIdenticalToReference) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  const trace_round_defaults defaults = defaults_for_model("mixed");
  deployment_plan plan = make_psc_plan(4, 2, 512);
  plan.round.group = crypto::group_backend::toy;
  plan.psc_extractor = defaults.psc_extractor;
  set_relays_workload(plan, 1.0);

  workdir_guard workdir;
  const distributed_round_result result =
      run_relay_round(plan, bin, workdir.path());
  deployment_plan ported = plan;
  ported.tally_path = workdir.path() + "/tally.out";
  EXPECT_EQ(result.tally, run_reference_round(ported))
      << "aggregated relay publishes diverge from the cursor-fed reference";

  // At sample_prob 1.0 the whole relay detour must vanish byte-wise: the
  // same plan fed as a plain `generate` workload is the unsampled
  // reference, and the tallies must match it too.
  deployment_plan direct = ported;
  direct.workload.kind = workload_kind::generate;
  direct.workload.relay_count = 0;
  EXPECT_EQ(result.tally, run_reference_round(direct));

  // The fleet accounting reached the summary sidecar: 2 windows x 50
  // agents per DC, nothing missing or rejected on the happy path.
  EXPECT_EQ(sum_fleet_field(result.summary, "relay_fleet"), 200);
  EXPECT_EQ(sum_fleet_field(result.summary, "windows"), 400);
  EXPECT_EQ(sum_fleet_field(result.summary, "missing"), 0);
  EXPECT_EQ(sum_fleet_field(result.summary, "rejected"), 0);
  EXPECT_EQ(sum_fleet_field(result.summary, "duplicates"), 0);
  EXPECT_EQ(sum_fleet_field(result.summary, "observed"),
            sum_fleet_field(result.summary, "sampled"));
}

TEST(RelayE2eSlowTest, PrivcountFleetAtFullSamplingIsByteIdentical) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  const trace_round_defaults defaults = defaults_for_model("mixed");
  deployment_plan plan = make_privcount_plan(4, 2, defaults.counters);
  plan.instruments = defaults.instruments;
  plan.psc_extractor = defaults.psc_extractor;
  set_relays_workload(plan, 1.0);

  workdir_guard workdir;
  const distributed_round_result result =
      run_relay_round(plan, bin, workdir.path());
  deployment_plan ported = plan;
  ported.tally_path = workdir.path() + "/tally.out";
  EXPECT_EQ(result.tally, run_reference_round(ported));

  deployment_plan direct = ported;
  direct.workload.kind = workload_kind::generate;
  direct.workload.relay_count = 0;
  EXPECT_EQ(result.tally, run_reference_round(direct));
}

TEST(RelayE2eSlowTest, SampledFleetMatchesFilteredReferenceAndAnalyticBand) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  const double p = 0.5;
  const trace_round_defaults defaults = defaults_for_model("mixed");
  deployment_plan plan = make_privcount_plan(4, 2, defaults.counters);
  plan.instruments = defaults.instruments;
  plan.psc_extractor = defaults.psc_extractor;
  set_relays_workload(plan, p);

  workdir_guard workdir;
  const distributed_round_result result =
      run_relay_round(plan, bin, workdir.path());
  deployment_plan ported = plan;
  ported.tally_path = workdir.path() + "/tally.out";
  // The sampled distributed run must equal the reference with the same
  // sampling predicate applied inline — publish files, many-publisher
  // merge, and sharded ingest all cancel out byte-wise.
  EXPECT_EQ(result.tally, run_reference_round(ported));

  // Fleet counters vs the analytically derived band. Sampling keeps or
  // drops whole circuits, so S = sum of kept circuits' event counts with
  // E[S] = p*T and Var[S] = p(1-p) * sum n_k^2 over per-circuit counts.
  const auto events = materialize_plan_events(plan);
  ASSERT_NE(events, nullptr);
  std::uint64_t total = 0;
  std::uint64_t expected_sampled = 0;
  std::map<std::uint64_t, std::uint64_t> per_circuit;
  const std::uint64_t seed = relay::sampling_seed_of(plan.rng_seed);
  for (const auto& dc_events : *events) {
    for (const auto& ev : dc_events) {
      ++total;
      ++per_circuit[tor::shard_key_of(ev)];
      if (relay::sample_event(ev, seed, p)) ++expected_sampled;
    }
  }
  double var = 0;
  for (const auto& [key, n_k] : per_circuit) {
    var += p * (1 - p) * static_cast<double>(n_k * n_k);
  }
  const std::int64_t observed = sum_fleet_field(result.summary, "observed");
  const std::int64_t sampled = sum_fleet_field(result.summary, "sampled");
  ASSERT_GE(observed, 0) << result.summary;
  ASSERT_GE(sampled, 0) << result.summary;
  EXPECT_EQ(static_cast<std::uint64_t>(observed), total);
  // Deterministic sampler: the fleet's count equals the predicate's count
  // exactly, and that count sits inside the 6-sigma band around p*T.
  EXPECT_EQ(static_cast<std::uint64_t>(sampled), expected_sampled);
  EXPECT_NEAR(static_cast<double>(sampled), p * static_cast<double>(total),
              6 * std::sqrt(var));
  EXPECT_EQ(sum_fleet_field(result.summary, "missing"), 0);
  EXPECT_EQ(sum_fleet_field(result.summary, "rejected"), 0);
}

}  // namespace
}  // namespace tormet::cli
