// Shared helpers for the reproduction benches: standard study setup at
// paper-like weight fractions, formatting of estimates, and the per-bench
// scale bookkeeping described in docs/ARCHITECTURE.md, "Substitutes and
// scale".
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "src/core/instruments.h"
#include "src/core/measurement_study.h"
#include "src/net/inproc.h"
#include "src/stats/confidence.h"
#include "src/util/table.h"

namespace tormet::bench {

/// The default study: a full-size synthetic consensus (6,500 relays like
/// April-2018 Tor) with 16 measured relays at paper-like weight fractions.
[[nodiscard]] inline core::study_config default_study_config(std::uint64_t seed =
                                                                 20180101) {
  core::study_config cfg;
  cfg.consensus.num_relays = 6500;
  cfg.consensus.seed = 42;
  cfg.num_exit_relays = 6;
  cfg.num_nonexit_relays = 10;
  cfg.target_exit_fraction = 0.02;    // paper: 1.5-2.4 %
  cfg.target_guard_fraction = 0.013;  // paper: ~1.2-1.4 %
  cfg.seed = seed;
  return cfg;
}

/// "value [lo; hi]" with count formatting.
[[nodiscard]] inline std::string fmt_count_est(const stats::estimate& e) {
  return format_count(e.value);
}
[[nodiscard]] inline std::string fmt_ci_counts(const stats::estimate& e) {
  return "[" + format_count(e.ci.lo) + "; " + format_count(e.ci.hi) + "]";
}
[[nodiscard]] inline std::string fmt_ci_percent(const stats::estimate& e) {
  return "[" + format_percent(e.ci.lo) + "; " + format_percent(e.ci.hi) + "]";
}
[[nodiscard]] inline std::string fmt_interval_counts(const stats::interval& i) {
  return "[" + format_count(i.lo) + "; " + format_count(i.hi) + "]";
}

/// Scales a local estimate to network-wide *paper-scale* numbers: divide by
/// the observation fraction, then by the simulation's network_scale.
[[nodiscard]] inline stats::estimate to_paper_scale(const stats::estimate& local,
                                                    double observe_fraction,
                                                    double network_scale) {
  const stats::estimate network =
      stats::extrapolate_by_fraction(local, observe_fraction);
  return stats::extrapolate_by_fraction(network, network_scale);
}

inline void print_header(const std::string& title, double network_scale,
                         const std::string& notes = "") {
  std::printf("%s\n", title.c_str());
  std::printf("  simulation scale: 1/%.0f of the 2018 Tor network%s%s\n\n",
              1.0 / network_scale, notes.empty() ? "" : " — ", notes.c_str());
}

}  // namespace tormet::bench
