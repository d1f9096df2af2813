// Table 5 multi-day reproduction over the *live pipeline*: the multi-day
// unique-client ratio (the paper's 4-day/1-day turnover of ~2.15x) measured
// end to end through the multi-round machinery itself — a generated
// `--days N` population-churn trace partitioned into daily PSC rounds by
// cli::run_reference_round (the same code path the distributed deployment
// is byte-identity-gated against), plus one long round spanning the whole
// window for the multi-day unique count.
//
// With noise disabled the raw counts are exact occupancy counts, so the
// printed ratio isolates the churn model + windowing, not DP noise.
//
// Usage: table5_multiday [--days N] [--scale X]
#include "common.h"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/cli/orchestrator.h"
#include "src/workload/population.h"

namespace {

using namespace tormet;

/// Extracts every "estimate <v>" line of a (multi-round) tally.
[[nodiscard]] std::vector<double> parse_estimates(const std::string& tally) {
  std::vector<double> out;
  std::istringstream in{tally};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("estimate ", 0) == 0) {
      out.push_back(std::strtod(line.c_str() + 9, nullptr));
    }
  }
  return out;
}

[[nodiscard]] cli::deployment_plan base_plan(double scale, std::uint64_t days) {
  cli::deployment_plan plan = cli::make_psc_plan(4, 3, 1 << 14);
  plan.round.group = crypto::group_backend::toy;
  plan.round.noise_enabled = false;  // exact counts isolate the churn model
  plan.rng_seed = 95;
  plan.psc_extractor = "client_ip";
  plan.workload.kind = cli::workload_kind::generate;
  plan.workload.model = "population";
  plan.workload.scale = scale;
  plan.workload.gen_seed = 95;
  plan.workload.gen_days = days;
  // run_reference_round validates ports even though nothing binds them.
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9900 + i);
  }
  return plan;
}

int run(std::uint64_t days, double scale) {
  // Daily rounds: one PSC unique-IP round per generated day, through the
  // multi-round reference pipeline (persistent deployment + windowed
  // cursors).
  cli::deployment_plan daily = base_plan(scale, days);
  daily.schedule_rounds = static_cast<std::uint32_t>(days);
  daily.round_duration_s = k_seconds_per_day;
  const std::vector<double> day_estimates =
      parse_estimates(cli::run_reference_round(daily));
  if (day_estimates.size() != days) {
    std::fprintf(stderr, "expected %llu daily estimates, got %zu\n",
                 static_cast<unsigned long long>(days), day_estimates.size());
    return 1;
  }

  // One long round over the same trace: the N-day unique-IP count.
  cli::deployment_plan window = base_plan(scale, days);
  const std::vector<double> window_estimate =
      parse_estimates(cli::run_reference_round(window));
  if (window_estimate.size() != 1) return 1;

  const double day1 = day_estimates.front();
  const double multi = window_estimate.front();
  const double ratio = multi / day1;
  const double churn = workload::population_params{}.daily_churn;
  const double model_ratio = 1.0 + static_cast<double>(days - 1) * churn;
  const double paper_ratio = 672'303.0 / 313'213.0;  // 4-day / 1-day IPs

  bench::print_header(
      "Table 5 (multi-day) — unique clients via the live multi-round pipeline",
      scale, "population model, noiseless PSC, daily rounds + one long round");
  repro_table table{"multi-day unique-IP ratio (" + std::to_string(days) +
                    " days)"};
  for (std::size_t d = 0; d < day_estimates.size(); ++d) {
    table.add("unique IPs day " + std::to_string(d + 1), "",
              format_count(day_estimates[d]), "");
  }
  table.add("unique IPs " + std::to_string(days) + "-day window", "",
            format_count(multi), "");
  table.add("multi-day / 1-day ratio",
            days == 4 ? "2.15x (672,303 / 313,213)" : "",
            format_sig(ratio, 3) + "x", "",
            "model 1+(N-1)c = " + format_sig(model_ratio, 3) + "x");
  if (days == 4) {
    table.add("paper 4-day turnover", format_sig(paper_ratio, 3) + "x", "", "");
  }
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t days = 4;
  double scale = 5e-4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--days" && i + 1 < argc) {
      days = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr, "usage: table5_multiday [--days N] [--scale X]\n");
      return 2;
    }
  }
  if (days < 2) {
    std::fprintf(stderr, "table5_multiday: --days must be >= 2\n");
    return 2;
  }
  return run(days, scale);
}
