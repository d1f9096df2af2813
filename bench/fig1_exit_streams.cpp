// Figure 1 reproduction: the exit-stream taxonomy over a 24-hour round.
//   (a) total streams vs initial streams          (~2 B total, ~5 % initial)
//   (b) initial streams by address kind           (hostname dominates)
//   (c) initial hostname streams by port          (web ports dominate)
// PrivCount measurement at the 6 measured exit relays (~2 % exit weight),
// inferred network-wide by dividing by the exit fraction (§3.3), then
// rescaled by the simulation's network_scale for paper-scale comparison.
#include "common.h"

#include "src/dp/action_bounds.h"
#include "src/privcount/deployment.h"
#include "src/workload/browsing.h"

namespace {

using namespace tormet;

constexpr double k_scale = 1e-3;

int run() {
  bench::print_header("Fig 1 — exit stream taxonomy (PrivCount at exits)",
                      k_scale);

  core::measurement_study study{bench::default_study_config()};
  tor::network& net = study.network();

  const auto alexa = std::make_shared<const workload::alexa_list>(
      workload::alexa_list::make_synthetic({.size = 100'000, .seed = 3}));
  workload::browsing_params bp;
  bp.seed = 2018;
  // ~6.9 M web clients x ~14.5 visits x ~20 streams ≈ the paper's 2 B
  // streams per day.
  bp.circuits_per_web_client = 14.5;
  workload::browsing_driver browser{net, *alexa, bp};

  std::vector<tor::client_id> clients;
  const auto n_clients = static_cast<std::size_t>(6.9e6 * k_scale);
  for (std::size_t i = 0; i < n_clients; ++i) {
    tor::client_profile p;
    p.ip = static_cast<std::uint32_t>(i + 1);
    clients.push_back(net.add_client(p));
  }

  net::inproc_net bus;
  privcount::deployment_config cfg = study.privcount_config();
  cfg.measured_relays = study.measured_exits();
  privcount::deployment dep{bus, cfg};
  dep.add_instrument(core::instrument_stream_taxonomy());
  dep.attach(net);

  // Sensitivities: the Table-1 domain bound (20) covers initial streams; a
  // protected user's total streams are bounded by 20 domains x ~20 streams.
  // Bounds scale with network_scale (docs/ARCHITECTURE.md, "Substitutes and
  // scale"). Expected values for the near-zero counters are set to the
  // smallest magnitude of *interest* (~0.2 % of initial streams), not to
  // zero: the equal-relative-noise allocator would otherwise spend the whole
  // budget shrinking their noise floor (see ablation_noise_allocation).
  const double d20 = 20.0 * k_scale;
  const double d400 = 400.0 * k_scale;
  const std::vector<privcount::counter_spec> specs{
      {"streams/total", d400, 6e4},
      {"streams/initial", d20, 3e3},
      {"streams/initial/hostname", d20, 3e3},
      {"streams/initial/ipv4", d20, 500},
      {"streams/initial/ipv6", d20, 500},
      {"streams/initial/hostname/web", d20, 3e3},
      {"streams/initial/hostname/other", d20, 500},
  };

  const auto results = dep.run_round(specs, [&] {
    browser.run_day(clients, sim_time{0});
  });

  std::map<std::string, privcount::counter_result> r;
  for (const auto& c : results) r[c.name] = c;

  const double exit_frac =
      study.fraction(tor::position::exit, study.measured_exits());
  const auto paper_scale = [&](const std::string& name) {
    const auto& c = r.at(name);
    return bench::to_paper_scale(
        stats::normal_estimate(static_cast<double>(c.value), c.sigma),
        exit_frac, k_scale);
  };

  const stats::estimate total = paper_scale("streams/total");
  const stats::estimate initial = paper_scale("streams/initial");
  const stats::estimate hostname = paper_scale("streams/initial/hostname");
  const stats::estimate ipv4 = paper_scale("streams/initial/ipv4");
  const stats::estimate ipv6 = paper_scale("streams/initial/ipv6");
  const stats::estimate web = paper_scale("streams/initial/hostname/web");
  const stats::estimate other = paper_scale("streams/initial/hostname/other");

  const tor::ground_truth& t = net.truth();
  repro_table fig1a{"Fig 1a — streams per 24 h (network-wide)"};
  fig1a.add("total streams", "~2 billion", bench::fmt_count_est(total),
            bench::fmt_ci_counts(total),
            "sim truth " + format_count(static_cast<double>(t.exit_streams_total) / k_scale));
  fig1a.add("initial streams", "~5 % of total",
            format_percent(initial.value / total.value),
            bench::fmt_ci_percent(stats::ratio_estimate(initial, total)),
            "sim truth " + format_percent(static_cast<double>(t.exit_streams_initial) /
                                          static_cast<double>(t.exit_streams_total)));
  fig1a.print();

  repro_table fig1b{"Fig 1b — initial streams by address kind"};
  fig1b.add("hostname", "~100 %", format_percent(hostname.value / initial.value),
            bench::fmt_ci_percent(stats::ratio_estimate(hostname, initial)));
  fig1b.add("IPv4", "~0 (within noise)", format_count(ipv4.value),
            bench::fmt_ci_counts(ipv4));
  fig1b.add("IPv6", "~0 (within noise)", format_count(ipv6.value),
            bench::fmt_ci_counts(ipv6));
  fig1b.print();

  repro_table fig1c{"Fig 1c — initial hostname streams by port"};
  fig1c.add("web port (80/443)", "~100 %",
            format_percent(web.value / hostname.value),
            bench::fmt_ci_percent(stats::ratio_estimate(web, hostname)));
  fig1c.add("other port", "~0 (within noise)", format_count(other.value),
            bench::fmt_ci_counts(other));
  fig1c.print();
  return 0;
}

}  // namespace

int main() { return run(); }
