// Trace generation: renders the workload models (zipf exit streams, web
// browsing, onion-service activity, entry-side population) into
// deterministic per-DC event traces — the bridge between the simulation
// layer and the distributed deployment, which replays these traces through
// real data-collector processes (see docs/EVENTS.md and cli::node_runner).
//
// Determinism contract: generate_trace_events() is a pure function of its
// params — same params, same per-DC event sequences, on every host and in
// every process. The distributed byte-identity checks depend on this: each
// DC process renders only its own slice of the `generate` workload, the
// in-process reference round renders every slice, and a slice rendered
// alone is the same slice the full generation holds.
//
// Partitioning: simulation events materialize at the observed (measured)
// relays of a canonical measurement_study; relay r maps to DC
// `sorted_index(r) % dcs`. A DC receives events only from relays that see
// the model's side of the circuit. The population model is entry-side
// only, and 2 of the 16 measured relays are exits without the guard flag,
// so a 16-DC population trace (paper-day's shape) has 14 active DCs:
// dc-6 and dc-12 get empty traces. Each per-DC sequence is stably sorted
// by sim time (generation order breaks ties), matching the trace-file
// ordering contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/tor/events.h"

namespace tormet::workload {

struct trace_gen_params {
  /// One of trace_models(): "zipf", "browsing", "onion", "population",
  /// "mixed".
  std::string model = "zipf";
  /// Number of data collectors (one trace per DC).
  std::size_t dcs = 4;
  /// network_scale for the simulation models (browsing/onion/population/
  /// mixed): fraction of the paper's network-wide volumes to simulate.
  double scale = 1e-4;
  /// Event budget for the synthetic "zipf" model (exit streams drawn from a
  /// Zipf rank distribution; no network simulation).
  std::uint64_t events = 5'000;
  std::uint64_t seed = 1;
  /// Days of activity to render (`tormet_tracegen --days N`). Simulation
  /// models advance the population one churn step per day (the Table 5
  /// multi-day unique-client driver); the zipf model splits its event
  /// budget evenly across days. Day d's events carry sim times in
  /// [d·86400, (d+1)·86400). Determinism is per-params within one build:
  /// the same params always reproduce identical traces, and days == 1 is
  /// exactly the default single-day generation.
  std::uint64_t days = 1;
};

/// The supported model names.
[[nodiscard]] const std::vector<std::string>& trace_models();
[[nodiscard]] bool is_known_trace_model(std::string_view model);

/// Renders the model into per-DC event sequences (index = DC index, each
/// time-ordered). Pure function of `params`. Given `only_dc`, every other
/// slice comes back empty and slice `only_dc` equals the full generation's:
/// the same values are drawn in the same order, but only that DC's events
/// are built, kept and sorted.
[[nodiscard]] std::vector<std::vector<tor::event>> generate_trace_events(
    const trace_gen_params& params,
    std::optional<std::size_t> only_dc = std::nullopt);

/// Writes the per-DC traces as `<dir>/dc-<k>.trace` (the directory must
/// exist). Returns per-DC event counts.
std::vector<std::size_t> write_trace_dir(const trace_gen_params& params,
                                         const std::string& dir);

}  // namespace tormet::workload
