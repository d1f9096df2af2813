// Scenario layer: named, time-varying adversarial workloads composed on top
// of the stationary trace models — the dynamics the paper's deployment
// actually faced (diurnal cycles, the 2013 Mevade botnet doubling Tor's
// user count, censorship-event client migrations, flash crowds, relay
// churn). Each scenario is a deterministic composition of
//
//   * a rate envelope  — base events/day shaped by a sinusoidal diurnal
//     term and piecewise-constant surge multipliers,
//   * client-set swaps — surge/bot/migrated client populations with
//     disjoint IP ranges entering or leaving mid-schedule,
//   * popularity shifts — surge traffic concentrating on one target, and
//   * per-DC dropout windows — relays going dark for part of the span,
//
// and emits, next to the events, a machine-readable ground-truth sidecar:
// the per-round true value of every instrument counter and extractor
// distinct-count, computed over exactly the events the pipeline will
// observe. Acceptance tests (tests/scenario_test.cpp) replay the events
// through the full distributed pipeline and assert the noised measurement
// lands inside the analytically derived noise band around this truth.
//
// Determinism contract: generate_scenario_events() is a pure function of
// its params — same params, same per-DC sequences, on every host. Plans
// declare scenarios as `workload scenario <name>,<scale>,<events>,<seed>
// [,<days>]` (cli::deployment_plan); each DC process renders only its own
// slice of the identical stream, the reference round every slice. See
// docs/SCENARIOS.md for the envelope math.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/tor/events.h"

namespace tormet::workload {

struct scenario_params {
  /// One of scenario_names(): "flash_crowd", "diurnal", "botnet_surge",
  /// "relay_churn", "country_block".
  std::string name = "diurnal";
  /// Number of data collectors (events partition onto DCs by client).
  std::size_t dcs = 4;
  /// Client-population scale: the base set holds max(32, 256 * scale)
  /// clients. Surge/bot/migrated sets size relative to the base set.
  double scale = 1.0;
  /// Baseline actions per day at envelope multiplier 1.0. Each action
  /// emits an entry connection + circuit + data record and one exit
  /// stream, so the rendered event count is ~4x this per day, scaled by
  /// the envelope.
  std::uint64_t events = 5'000;
  std::uint64_t seed = 1;
  /// Days of activity; day d's events carry sim times in
  /// [d*86400, (d+1)*86400), matching the daily round windows.
  std::uint64_t days = 1;
};

[[nodiscard]] const std::vector<std::string>& scenario_names();
[[nodiscard]] bool is_known_scenario(std::string_view name);

/// One piecewise-constant multiplier over sim-time [start, end).
/// Overlapping segments multiply.
struct envelope_segment {
  std::int64_t start = 0;
  std::int64_t end = 0;
  double multiplier = 1.0;
};

/// Deterministic time-varying rate: m(t) = base
///   * (1 + sin_amplitude * sin(2*pi * t / sin_period_s))
///   * prod{ seg.multiplier : seg.start <= t < seg.end }.
struct rate_envelope {
  double base = 1.0;
  double sin_amplitude = 0.0;  // 0 = flat (no diurnal term)
  std::int64_t sin_period_s = 86'400;
  std::vector<envelope_segment> segments;

  [[nodiscard]] double at(std::int64_t t) const;
};

/// A relay-churn outage: DC `dc` observes nothing in [start, end).
struct dropout_window {
  std::size_t dc = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// The composed shape of one named scenario — exposed so tests and docs
/// can assert against the same envelope the generator samples from.
struct scenario_shape {
  rate_envelope rate;
  std::vector<dropout_window> dropouts;
};
[[nodiscard]] scenario_shape shape_of(const scenario_params& params);

/// Renders the scenario into per-DC event sequences (index = DC, each
/// stably time-ordered). Pure function of `params`. Given `only_dc`, every
/// other slice comes back empty and slice `only_dc` equals the full
/// generation's (the same values are drawn in the same order).
[[nodiscard]] std::vector<std::vector<tor::event>> generate_scenario_events(
    const scenario_params& params,
    std::optional<std::size_t> only_dc = std::nullopt);

/// Writes the per-DC traces as `<dir>/dc-<k>.trace` plus the ground-truth
/// sidecar `<dir>/ground_truth.cfg` for `rounds` daily windows (rounds = 0
/// means one round per generated day). The directory must exist. Returns
/// per-DC event counts.
std::vector<std::size_t> write_scenario_dir(const scenario_params& params,
                                            const std::string& dir);

// ---------------------------------------------------------------------------
// Ground truth: what a noiseless pipeline must measure, per round.
// ---------------------------------------------------------------------------

/// True values for one collection window, computed by running the named
/// registry instruments/extractors (src/core/instruments.h) over the
/// generated events — the identical code path the DCs run, so a noiseless
/// round must match these exactly.
struct scenario_round_truth {
  /// Events inside the window, across all DCs.
  std::uint64_t events = 0;
  /// PrivCount: counter name -> true increment total.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// PSC: extractor name -> true distinct-item count.
  std::vector<std::pair<std::string, std::uint64_t>> distinct;
};

struct scenario_truth {
  std::string scenario;
  std::uint64_t seed = 0;
  std::vector<scenario_round_truth> rounds;
};

/// Computes per-round truth over `per_dc` using the same windowing as
/// cli::round_window_for: `rounds` windows of `round_duration_s` separated
/// by `round_gap_s`, except rounds <= 1 which is one unbounded window (the
/// legacy whole-stream replay).
[[nodiscard]] scenario_truth compute_scenario_truth(
    const scenario_params& params,
    const std::vector<std::vector<tor::event>>& per_dc,
    const std::vector<std::string>& instruments,
    const std::vector<std::string>& extractors, std::uint32_t rounds,
    std::int64_t round_duration_s, std::int64_t round_gap_s);

/// Sidecar text format (`tormet-ground-truth-v1`); serialize -> parse is
/// lossless.
[[nodiscard]] std::string serialize_ground_truth(const scenario_truth& truth);
/// Throws precondition_error with a line-numbered message on malformed
/// input.
[[nodiscard]] scenario_truth parse_ground_truth(std::string_view text);
[[nodiscard]] scenario_truth load_ground_truth(const std::string& path);
void save_ground_truth(const scenario_truth& truth, const std::string& path);

/// Measurement wiring with signal on every scenario's event mix: the
/// instruments scenario plans default to and the extractor unique-client
/// dynamics show up in.
struct scenario_measurements {
  std::vector<std::string> instruments;
  std::string psc_extractor;
};
[[nodiscard]] scenario_measurements measurements_for_scenario(
    std::string_view name);

}  // namespace tormet::workload
