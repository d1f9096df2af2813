// Web-browsing workload: generates the exit-side traffic of §4. Each web
// client builds per-site circuits (Tor Browser's one-circuit-per-domain
// behaviour) whose initial stream carries the intended destination; the
// destination mixture is calibrated to the paper's measured shape:
//
//   * ~40 % torproject.org (the Onionoo anomaly, §4.3),
//   * ~9.7 % amazon siblings (www.amazon.com-dominated),
//   * ~39 % other Alexa sites, Zipf over rank (exponent 1 makes the Fig 2
//     rank-decade buckets flat, as measured),
//   * remainder: a non-Alexa long tail (the Table 2 unique-SLD tail).
//
// Within the Alexa tail, only every `alexa_active_stride`-th site is
// visited by Tor users (mass snaps to one representative per stride
// bucket): this keeps the per-decade access shares flat while reproducing
// the paper's small unique-Alexa-SLD count relative to total accesses.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>

#include "src/tor/network.h"
#include "src/workload/alexa.h"
#include "src/workload/zipf.h"

namespace tormet::workload {

struct browsing_params {
  // destination mixture (fractions of initial streams). The remainder
  // (~0.217 with the defaults, matching Fig 2's "other" bar) is the
  // non-Alexa long tail; torproject + amazon + alexa ≈ 78 % total Alexa
  // membership — the paper's "~80 % of sites are in the top-1M list".
  double torproject_share = 0.401;
  double amazon_share = 0.097;
  double alexa_share = 0.285;          // other Alexa-listed sites
  double www_amazon_fraction = 0.886;  // of amazon-share hits: www.amazon.com

  // Alexa tail shape
  double alexa_zipf_exponent = 1.0;
  std::uint32_t alexa_active_stride = 25;

  // non-Alexa long tail
  std::uint64_t tail_universe = 5'000'000;
  double tail_zipf_exponent = 0.75;

  // stream taxonomy (Fig 1 shape)
  double subsequent_streams_per_initial = 19.0;  // total/initial ≈ 20 (5 %)
  double ip_literal_fraction = 0.002;            // initial streams naming an IP
  double nonweb_port_fraction = 0.004;           // hostname streams, port != 80/443
  double port_443_fraction = 0.75;               // remainder uses port 80

  // volume
  double circuits_per_web_client = 9.0;          // site visits per client-day
  double stream_bytes_mean = 250e3;              // exponential payload per stream

  std::uint64_t seed = 99;
};

class browsing_driver {
 public:
  browsing_driver(tor::network& net, const alexa_list& alexa,
                  browsing_params params);

  /// One day of browsing for the given web clients.
  void run_day(std::span<const tor::client_id> web_clients, sim_time day_start);

  /// Samples one destination hostname from the mixture (exposed for tests
  /// and for the Monte-Carlo extrapolation to re-use the exact model).
  [[nodiscard]] std::string sample_destination();

  /// One full site visit (circuit with initial + subsequent streams) for an
  /// arbitrary client — building block of run_day.
  void visit_site(tor::client_id c, sim_time t);

  /// Ground truth for Table 2 validation: distinct Alexa ranks visited
  /// network-wide so far.
  [[nodiscard]] std::size_t unique_alexa_sites_visited() const noexcept {
    return visited_alexa_ranks_.size();
  }

 private:
  tor::network& net_;
  const alexa_list& alexa_;
  browsing_params params_;
  zipf_sampler alexa_ranks_;
  zipf_sampler tail_ranks_;
  rng rng_;
  std::vector<std::string> amazon_siblings_;  // cached: building it scans the list
  std::unordered_set<std::uint64_t> visited_alexa_ranks_;
};

}  // namespace tormet::workload
