#include "src/workload/browsing.h"

#include "src/crypto/sha256.h"
#include "src/util/check.h"

namespace tormet::workload {

browsing_driver::browsing_driver(tor::network& net, const alexa_list& alexa,
                                 browsing_params params)
    : net_{net}, alexa_{alexa}, params_{std::move(params)},
      alexa_ranks_{alexa.size(), params_.alexa_zipf_exponent},
      tail_ranks_{params_.tail_universe, params_.tail_zipf_exponent},
      rng_{params_.seed}, amazon_siblings_{alexa.sibling_set("amazon")} {
  expects(params_.torproject_share + params_.amazon_share + params_.alexa_share <=
              1.0,
          "destination mixture shares must not exceed 1");
}

std::string browsing_driver::sample_destination() {
  const double u = rng_.uniform();
  if (u < params_.torproject_share) {
    // The Onionoo anomaly: automated clients hammering the Tor-status API
    // dominate, with ordinary project-site visits behind it (§4.3: 43.4 %
    // of primary domains were onionoo.torproject.org in the follow-up
    // measurement vs 40.1 % torproject.org overall).
    const double v = rng_.uniform();
    if (v < 0.90) return "onionoo.torproject.org";
    if (v < 0.97) return "www.torproject.org";
    return "torproject.org";
  }
  if (u < params_.torproject_share + params_.amazon_share) {
    if (rng_.bernoulli(params_.www_amazon_fraction)) return "www.amazon.com";
    return amazon_siblings_[static_cast<std::size_t>(
        rng_.below(amazon_siblings_.size()))];
  }
  if (u < params_.torproject_share + params_.amazon_share + params_.alexa_share) {
    // Zipf over ranks, snapped to one active representative per stride
    // bucket (see header comment).
    std::uint64_t rank = alexa_ranks_.sample(rng_);
    const std::uint32_t stride = params_.alexa_active_stride;
    // Snap tail ranks onto one active representative per stride bucket (the
    // Tor-active subset of the list). Head ranks (top 100) are left alone:
    // popular sites are all active, and snapping them would distort the
    // Fig 2 head buckets.
    if (stride > 1 && rank > 100) {
      const std::uint64_t bucket = (rank - 1) / stride;
      const std::uint64_t offset =
          crypto::sha256_trunc64("alexa-bucket:" + std::to_string(bucket)) % stride;
      rank = std::min<std::uint64_t>(bucket * stride + offset + 1, alexa_.size());
    }
    visited_alexa_ranks_.insert(rank);
    const std::string& domain = alexa_.domain_at_rank(static_cast<std::uint32_t>(rank));
    // Half the visits use the bare registered domain, half a www subdomain
    // (membership matching collapses them onto the same list entry).
    return rng_.bernoulli(0.5) ? domain : "www." + domain;
  }
  // Non-Alexa long tail.
  const std::uint64_t k = tail_ranks_.sample(rng_);
  static constexpr const char* tail_tlds[] = {"com", "net", "org", "ru", "de",
                                              "info", "io", "cn", "br", "xyz"};
  const auto tld = tail_tlds[k % std::size(tail_tlds)];
  return "tail" + std::to_string(k) + "." + tld;
}

void browsing_driver::visit_site(tor::client_id c, sim_time t) {
  std::vector<tor::stream_spec> streams;
  const auto subsequent =
      static_cast<std::size_t>(rng_.poisson(params_.subsequent_streams_per_initial));
  streams.reserve(1 + subsequent);

  tor::stream_spec initial;
  if (rng_.bernoulli(params_.ip_literal_fraction)) {
    const bool v6 = rng_.bernoulli(0.25);
    initial.kind = v6 ? tor::address_kind::ipv6 : tor::address_kind::ipv4;
    initial.target = v6 ? "2001:db8::1" : "198.51.100.7";
  } else {
    initial.kind = tor::address_kind::hostname;
    initial.target = sample_destination();
  }
  if (rng_.bernoulli(params_.nonweb_port_fraction)) {
    initial.port = 8080;
  } else {
    initial.port = rng_.bernoulli(params_.port_443_fraction) ? 443 : 80;
  }
  initial.bytes =
      static_cast<std::uint64_t>(rng_.exponential(1.0 / params_.stream_bytes_mean));
  streams.push_back(std::move(initial));

  // Subsequent streams fetch embedded resources: third-party hosts, always
  // web ports (their targets are not measured — only initial streams are
  // "primary domains").
  for (std::size_t i = 0; i < subsequent; ++i) {
    tor::stream_spec s;
    s.kind = tor::address_kind::hostname;
    s.target = "cdn" + std::to_string(rng_.below(64)) + ".example.com";
    s.port = 443;
    s.bytes =
        static_cast<std::uint64_t>(rng_.exponential(1.0 / params_.stream_bytes_mean));
    streams.push_back(std::move(s));
  }
  net_.exit_circuit(c, streams, t);
}

void browsing_driver::run_day(std::span<const tor::client_id> web_clients,
                              sim_time day_start) {
  for (const auto c : web_clients) {
    const std::uint64_t visits = rng_.poisson(params_.circuits_per_web_client);
    for (std::uint64_t i = 0; i < visits; ++i) {
      visit_site(c, day_start + static_cast<std::int64_t>(
                                    rng_.below(k_seconds_per_day)));
    }
  }
}

}  // namespace tormet::workload
