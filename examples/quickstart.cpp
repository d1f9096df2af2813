// Quickstart: the smallest complete tormet measurement.
//
// Sets up a simulated Tor network with 16 instrumented relays, runs one
// differentially-private PrivCount round counting exit streams while a web
// workload executes, and infers the network-wide total with a 95 % CI —
// the §3.3 inference pipeline end to end.
//
//   $ ./quickstart
#include <cstdio>

#include "src/core/instruments.h"
#include "src/core/measurement_study.h"
#include "src/net/inproc.h"
#include "src/stats/confidence.h"
#include "src/workload/browsing.h"

using namespace tormet;

int main() {
  // 1. A synthetic Tor consensus with measured relays at paper-like weight.
  core::study_config config;
  config.consensus.num_relays = 2000;
  config.target_exit_fraction = 0.03;
  core::measurement_study study{config};
  tor::network& net = study.network();

  // 2. A PrivCount deployment (1 tally server, 3 share keepers, 16 data
  //    collectors) over the in-process transport, instrumented to count
  //    exit streams.
  net::inproc_net bus;
  privcount::deployment_config dc = study.privcount_config();
  dc.measured_relays = study.measured_exits();
  privcount::deployment privcount{bus, dc};
  privcount.add_instrument(core::instrument_stream_taxonomy());
  privcount.attach(net);

  // 3. A web-browsing workload: 500 Tor Browser users for one day.
  const auto alexa =
      workload::alexa_list::make_synthetic({.size = 20'000, .seed = 1});
  workload::browsing_driver browser{net, alexa, workload::browsing_params{}};
  std::vector<tor::client_id> clients;
  for (int i = 0; i < 500; ++i) {
    clients.push_back(net.add_client({.ip = static_cast<std::uint32_t>(i)}));
  }

  // 4. One measurement round: counter specs carry the sensitivity (Table-1
  //    action bounds, scaled to this small simulation — see
  //    docs/ARCHITECTURE.md, "Substitutes and scale") and an expected
  //    magnitude for the noise allocation.
  const std::vector<privcount::counter_spec> specs{
      {"streams/total", 8.0, 2500.0},
      {"streams/initial", 0.4, 125.0},
  };
  const auto results = privcount.run_round(specs, [&] {
    browser.run_day(clients, sim_time{0});
  });

  // 5. Inference: divide by the measured exit fraction.
  const double p = study.fraction(tor::position::exit, study.measured_exits());
  std::printf("measured exit fraction: %.2f %%\n\n", p * 100);
  for (const auto& counter : results) {
    const stats::estimate network = stats::extrapolate_by_fraction(
        stats::normal_estimate(static_cast<double>(counter.value),
                               counter.sigma),
        p);
    std::printf("%-18s local %8lld (sigma %6.1f)  ->  network %10.0f  "
                "95%% CI [%.0f; %.0f]\n",
                counter.name.c_str(), static_cast<long long>(counter.value),
                counter.sigma, network.value, network.ci.lo, network.ci.hi);
  }
  std::printf("\nsimulated ground truth: %llu total streams, %llu initial\n",
              static_cast<unsigned long long>(net.truth().exit_streams_total),
              static_cast<unsigned long long>(net.truth().exit_streams_initial));
  return 0;
}
