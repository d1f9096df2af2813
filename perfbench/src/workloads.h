// The benchmark's named workloads. Each one is a deployment plan plus the
// inputs the benchmark process renders before timing starts, derived from
// the run's --seed (same seed, same inputs). Every workload is a batch
// replay of a fixed input: each DC pulls its next window as soon as it has
// ingested the previous one, with no arrival schedule.
//
//   paper-day        PrivCount, 1 TS + 3 SKs + 16 DCs, population traces
//                    over 2 days (2 daily rounds), entry_totals at paper
//                    noise, durable op-log on, default ingest plane. Not in
//                    BENCHMARK.json: its schedule_s spreads past the bound.
//   psc-crypto-heavy PSC p256, 1 TS + 3 CPs + 16 DCs, one round counting
//                    unique primary SLDs over zipf exit-stream traces.
//   relay-fanin      PrivCount, 1 TS + 3 SKs + 4 DCs, each DC embedding
//                    50 relay agents sampling zipf exit streams at 0.5 over
//                    2 daily rounds (dc_shards 4 on 1 ingest worker),
//                    durable op-log on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/workload/trace_gen.h"

namespace perfbench {

/// `full` is the measured size; `tiny` keeps every workload's shape (node
/// counts, rounds, code paths) at a size the benchmark's own test runs in
/// seconds.
enum class size_class { full, tiny };

struct workload {
  std::string name;
  /// Ports 0, tally/durable/trace paths unset: each deployment fills them
  /// in fresh (see deploy.h).
  tormet::cli::deployment_plan plan;
  /// Set when the DCs replay trace files the benchmark renders in setup;
  /// unset when every DC process materializes the plan's events itself.
  std::optional<tormet::workload::trace_gen_params> traces;
  /// Sizes recorded with every result, as (key, value) text pairs.
  std::vector<std::pair<std::string, std::string>> sizes;
  /// Untimed deployments after each setup phase of a timed run, for a
  /// workload whose first deployments after the single-threaded setup run
  /// slow.
  std::size_t warmup_deployments = 0;

  [[nodiscard]] std::size_t dc_count() const;
  [[nodiscard]] std::uint32_t rounds() const {
    return plan.schedule_rounds == 0 ? 1 : plan.schedule_rounds;
  }
  /// DC-rounds one deployment schedules: the unit failures are counted in.
  [[nodiscard]] std::uint64_t dc_rounds() const { return dc_count() * rounds(); }
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] workload make_workload(const std::string& name,
                                     std::uint64_t seed, size_class size);

}  // namespace perfbench
