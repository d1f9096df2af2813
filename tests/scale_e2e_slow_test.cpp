// The ROADMAP scale gate, at the paper's deployment shape: a 16-DC
// PrivCount deployment fed by trace_gen population traces modeling ~2M
// daily clients (network_scale 0.227 of the paper's 8.8M daily users)
// completing a multi-round schedule at paper noise strength. Every DC
// process runs the PR-8 parallel ingest plane (hash-sharded slabs on a
// worker pool), and the resulting multi-round tally must still be
// byte-identical to the scalar in-process reference round.
//
// This is a [slow] test (ctest -L slow): trace generation alone renders
// ~10M events across two simulated days, and the round spawns 19 real
// node processes over TCP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <numeric>

#include "src/cli/deployment_plan.h"
#include "src/cli/node_runner.h"
#include "src/cli/orchestrator.h"
#include "src/core/instruments.h"
#include "src/workload/trace_gen.h"
#include "tests/node_process.h"

namespace tormet::cli {
namespace {

TEST(ScaleE2eTest, SixteenDcPopulationRoundAtTwoMillionDailyClients) {
  const std::string bin = node_binary();
  if (bin.empty()) GTEST_SKIP() << "tormet_node binary not found";

  workdir_guard workdir;
  workload::trace_gen_params gen;
  gen.model = "population";
  gen.dcs = 16;
  // 0.227 x the paper's 8.8M daily selective clients ~= 2.0M modeled
  // clients per day; two days of churn drive two 24h measurement rounds.
  gen.scale = 0.227;
  gen.days = 2;
  gen.seed = 227;
  const std::vector<std::size_t> per_dc =
      workload::write_trace_dir(gen, workdir.path());
  ASSERT_EQ(per_dc.size(), 16u);
  const std::size_t total =
      std::accumulate(per_dc.begin(), per_dc.end(), std::size_t{0});
  // Scale guard: the population model at this scale renders ~10M entry
  // events over two days. A silent collapse of the client population
  // would pass byte-identity (both sides would shrink together), so pin
  // the workload volume itself.
  EXPECT_GE(total, 8'000'000u) << "population model lost its scale";
  // Events land at measured entry relays and relays map to DCs by sorted
  // index mod 16, so a couple of DC slots can legitimately come up empty
  // (a noise-only DC still participates in every round). Most must be fed.
  const std::size_t fed = static_cast<std::size_t>(
      std::count_if(per_dc.begin(), per_dc.end(),
                    [](std::size_t c) { return c > 0; }));
  EXPECT_GE(fed, 12u) << "relay->DC mapping starved most DCs";

  deployment_plan plan = make_privcount_plan(
      16, 2, core::default_specs_for("entry_totals"));
  plan.rng_seed = 229;
  plan.workload.kind = workload_kind::trace;
  plan.workload.trace_dir = workdir.path();
  plan.instruments = {"entry_totals"};
  // Paper noise strength: noise on, with entry_totals' paper-derived
  // sensitivities and the default privacy allocation.
  plan.privcount_noise_enabled = true;
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  // The PR-8 ingest plane, on in every DC process: 8 hash shards spread
  // over 4 pool workers. Byte-identity against the reference proves the
  // parallel plane is invisible in the output even at population scale.
  plan.dc_shards = 8;
  plan.dc_ingest_threads = 4;
  plan.tally_path = workdir.path() + "/tally.out";
  plan.round_deadline_ms = 300'000;
  assign_free_ports(plan);

  const distributed_round_result result =
      run_distributed_round(plan, bin, workdir.path(), 300'000);
  for (const auto& n : result.nodes) {
    EXPECT_EQ(n.exit_code, 0) << "node " << n.id << " failed";
  }
  EXPECT_NE(result.tally.find("tormet-tally-multiround-v1"), std::string::npos);
  EXPECT_NE(result.tally.find("rounds 2"), std::string::npos);
  EXPECT_EQ(result.tally, run_reference_round(plan));
}

}  // namespace
}  // namespace tormet::cli
