// Example: counting unique Tor clients with PSC (the §5.1 methodology).
//
// PrivCount can count *connections*, but "how many unique clients?" needs
// the private set-union cardinality protocol: each data collector feeds
// client IPs into an oblivious encrypted table (never storing an address),
// the computation parties add binomial noise, mix, and jointly decrypt, and
// the tally server learns only the noisy distinct count. The example
// finishes with the paper's quick user inference (observed / fraction / 3
// guards).
#include <cstdio>

#include "src/core/instruments.h"
#include "src/core/measurement_study.h"
#include "src/net/inproc.h"
#include "src/stats/guard_model.h"
#include "src/stats/psc_ci.h"
#include "src/workload/geoip.h"
#include "src/workload/population.h"

using namespace tormet;

int main() {
  core::study_config config;
  config.consensus.num_relays = 2000;
  config.target_guard_fraction = 0.03;
  core::measurement_study study{config};
  tor::network& net = study.network();
  auto geo = std::make_shared<workload::geoip_db>(workload::geoip_db::make_synthetic());

  // A small client population with promiscuous members (tor2web/bridges).
  workload::population_params pp;
  pp.network_scale = 1.0;
  pp.selective_clients = 3000;
  pp.promiscuous_clients = 15;
  workload::population pop{net, *geo, pp};

  // PSC deployment: 3 computation parties, DCs at the measured guards.
  net::inproc_net bus;
  psc::deployment_config cfg = study.psc_config();
  cfg.measured_relays = study.measured_guards();
  cfg.round.bins = 1 << 14;
  cfg.round.group = crypto::group_backend::toy;  // p256 for production
  // Table 1 bound: 4 new IPs per protected day, scaled to this small
  // simulation (docs/ARCHITECTURE.md, "Substitutes and scale") so the noise
  // matches the deployment's signal-to-noise ratio.
  cfg.round.sensitivity = 4.0 * 0.05;
  psc::deployment psc_dep{bus, cfg};
  psc_dep.set_extractor(core::extract_client_ip());
  psc_dep.attach(net);

  const psc::round_outcome out = psc_dep.run_round([&] {
    pop.run_entry_day(sim_time{0});
  });

  stats::psc_ci_params ci;
  ci.bins = out.bins;
  ci.total_noise_bits = out.total_noise_bits;
  const stats::estimate unique = stats::psc_confidence_interval(out.raw_count, ci);

  const double frac = study.fraction(tor::position::guard, study.measured_guards());
  std::printf("raw decrypted count:    %llu (includes %llu expected noise ones)\n",
              static_cast<unsigned long long>(out.raw_count),
              static_cast<unsigned long long>(out.total_noise_bits / 2));
  std::printf("unique client IPs seen: %.0f  95%% CI [%.0f; %.0f]\n",
              unique.value, unique.ci.lo, unique.ci.hi);
  std::printf("guard weight fraction:  %.2f %%\n", frac * 100);
  std::printf("quick user estimate:    %.0f clients (observed/fraction/3)\n",
              stats::quick_user_estimate(unique.value, frac, 3));
  std::printf("population truth:       %zu active clients\n",
              pop.active().size());
  return 0;
}
