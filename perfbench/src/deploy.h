// The benchmark's deployment side: renders a workload's inputs (setup),
// runs the plan through the real distributed deployment (one tormet_node
// process per node over TCP) with fresh state every time, and checks each
// run against the in-process reference and the TS's .summary sidecar.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/cli/deployment_plan.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(bench_clock::time_point a,
                                            bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One setup pass: the workload's inputs rendered into a fresh directory
/// and synced, plus the plan written and its ports assigned.
struct prepared_inputs {
  std::string dir;
  /// Events the DCs replay (before any relay sampling), across all DCs.
  std::uint64_t events = 0;
  double total_s = 0;
  double generate_s = 0;     // workload::generate_trace_events
  double trace_write_s = 0;  // tor::trace_writer, every DC's file
  double sync_s = 0;         // fsync of the traces and their directory
};

/// Renders `w`'s inputs into `dir` (created; must not exist) through the
/// workload library, in this process.
[[nodiscard]] prepared_inputs prepare_inputs(const workload& w,
                                             const std::string& dir);

/// `w`'s plan pointed at fresh state under `workdir` (created): tally
/// path, durable dir (when the workload is durable), trace inputs from
/// `inputs`, and newly assigned ports.
[[nodiscard]] tormet::cli::deployment_plan fresh_plan(
    const workload& w, const prepared_inputs& inputs,
    const std::string& workdir);

/// One distributed run as the user sees it.
struct distributed_run {
  std::string tally;
  std::string summary;
  std::string error;  // non-empty when a node failed or the run timed out
  double schedule_s = 0;
  double cpu_s = 0;   // user + sys of every node process
  double rss_mb = 0;  // peak RSS of the largest node process
  /// Seconds from the first spawn to each tally commit (the TS's rename
  /// of tally.out.tmp to tally.out); filled when commits are watched.
  std::vector<double> commits_s;
};

/// Runs `plan` through cli::run_distributed_round in `workdir`, from a
/// launcher process (this binary run with --launch).
[[nodiscard]] distributed_run run_distributed(
    const tormet::cli::deployment_plan& plan, const std::string& workdir,
    bool watch_commits);

/// The launcher: loads the plan at `plan_path`, runs it distributed in the
/// plan's directory, and writes schedule_s, cpu_s, rss_kib, t0_ns (and
/// error) lines to `result_path`.
int launch_main(const std::string& plan_path, const std::string& result_path);

/// Totals read from a .summary sidecar.
struct summary_totals {
  std::uint64_t rounds = 0;
  std::uint64_t round_retries = 0;
  std::uint64_t dc_lines = 0;
  std::uint64_t dc_reported = 0;
  std::uint64_t dc_missed = 0;
  std::uint64_t dc_excluded = 0;
  std::uint64_t excluded_now = 0;
  std::uint64_t window_dropped = 0;
  std::uint64_t stream_failed = 0;
  std::uint64_t relay_fleets = 0;
  std::uint64_t relay_observed = 0;
  /// missing + duplicates + late_dropped + rejected, over every fleet.
  std::uint64_t relay_faults = 0;
};

[[nodiscard]] summary_totals parse_summary(const std::string& text);

/// Failed DC-rounds of one distributed run (0 on a clean run). A DC-round
/// fails when the summary marks it missed, excluded or retried; every
/// DC-round fails when the run errored, its tally differs from
/// `reference`, a round went uncommitted, or (relays) the fleet booked a
/// fault or observed other than `events`. Reasons go to `why`.
[[nodiscard]] std::uint64_t failed_dc_rounds(const workload& w,
                                             const distributed_run& run,
                                             const std::string& reference,
                                             std::uint64_t events,
                                             std::vector<std::string>& why);

/// Bytes of every regular file under `dir` (0 when it does not exist).
[[nodiscard]] std::uint64_t tree_bytes(const std::string& dir);

}  // namespace perfbench
