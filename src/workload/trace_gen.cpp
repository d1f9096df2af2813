#include "src/workload/trace_gen.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <string_view>

#include "src/core/measurement_study.h"
#include "src/tor/trace_file.h"
#include "src/util/check.h"
#include "src/workload/alexa.h"
#include "src/workload/browsing.h"
#include "src/workload/geoip.h"
#include "src/workload/onion_activity.h"
#include "src/workload/population.h"
#include "src/workload/zipf.h"

namespace tormet::workload {

namespace {

/// The zipf model needs no simulation: a pure stream of exit_stream events
/// whose hostnames follow a Zipf rank distribution over a synthetic domain
/// universe ("zipf<rank>.com" — distinct SLD per rank, so both counter and
/// unique-SLD measurements have signal). Observers are the DC indices
/// themselves. Events of DCs outside `only` still draw their values, so
/// the kept slice is exactly the full generation's.
[[nodiscard]] std::vector<std::vector<tor::event>> generate_zipf(
    const trace_gen_params& params, std::optional<std::size_t> only) {
  std::vector<std::vector<tor::event>> out{params.dcs};
  rng r{params.seed};
  const zipf_sampler ranks{1'000'000, 1.0};
  // The event budget splits evenly across days (early days absorb the
  // remainder); day d's events get sim times inside day d's window. With
  // days == 1 this is exactly the original single-day generation.
  const std::uint64_t days = std::max<std::uint64_t>(1, params.days);
  const auto quota_of = [&](std::uint64_t d) {
    return params.events / days + (d < params.events % days ? 1 : 0);
  };
  for (std::size_t k = 0; k < params.dcs; ++k) {
    if (only.has_value() && k != *only) continue;
    std::uint64_t n = 0;  // event i of each day goes to DC i % dcs
    for (std::uint64_t d = 0; d < days; ++d) {
      const std::uint64_t quota = quota_of(d);
      n += quota / params.dcs + (k < quota % params.dcs ? 1 : 0);
    }
    out[k].reserve(n);
  }
  for (std::uint64_t d = 0; d < days; ++d) {
    const std::uint64_t quota = quota_of(d);
    const std::int64_t day_start =
        static_cast<std::int64_t>(d) * k_seconds_per_day;
    for (std::uint64_t i = 0; i < quota; ++i) {
      const bool is_initial = r.bernoulli(0.25);
      const auto kind = r.bernoulli(0.002) ? tor::address_kind::ipv4
                                           : tor::address_kind::hostname;
      const std::uint16_t port = r.bernoulli(0.75) ? 443 : 80;
      const std::uint64_t number = kind == tor::address_kind::hostname
                                       ? ranks.sample(r)
                                       : r.below(256);
      const std::size_t k = i % params.dcs;
      if (only.has_value() && k != *only) continue;
      // "zipf<rank>.com" or "192.0.2.<n>", at most 15 characters: written
      // straight into the string's inline buffer.
      char text[16];
      const std::string_view prefix =
          kind == tor::address_kind::hostname ? "zipf" : "192.0.2.";
      const std::string_view suffix =
          kind == tor::address_kind::hostname ? ".com" : "";
      char* at = std::copy(prefix.begin(), prefix.end(), text);
      at = std::to_chars(at, text + sizeof text, number).ptr;
      at = std::copy(suffix.begin(), suffix.end(), at);
      // One event per DC per simulated second, clamped to the day window so
      // an oversized budget piles up at the day's end instead of leaking
      // into the next day's round (the header's [d·86400, (d+1)·86400)
      // contract, which multi-round partitioning relies on).
      const std::int64_t offset = std::min<std::int64_t>(
          static_cast<std::int64_t>(i / params.dcs), k_seconds_per_day - 1);
      out[k].emplace_back(
          static_cast<tor::relay_id>(k), sim_time{day_start + offset},
          tor::exit_stream_event{kind, is_initial, port,
                                 std::string(text, at)});
    }
  }
  return out;
}

/// Simulation models: run the workload drivers against a canonical
/// measurement study and capture events at its 16 measured relays,
/// partitioned onto DCs by sorted relay index. The simulation always runs
/// in full; events of DCs outside `only` are dropped at the sink.
[[nodiscard]] std::vector<std::vector<tor::event>> generate_simulated(
    const trace_gen_params& params, std::optional<std::size_t> only) {
  core::study_config study_cfg;
  study_cfg.seed = params.seed;
  core::measurement_study study{study_cfg};
  tor::network& net = study.network();

  // relay -> DC partition over the sorted measured set.
  std::map<tor::relay_id, std::size_t> dc_of;
  {
    std::vector<tor::relay_id> measured = study.measured_relays();
    std::sort(measured.begin(), measured.end());
    for (std::size_t i = 0; i < measured.size(); ++i) {
      dc_of[measured[i]] = i % params.dcs;
    }
    net.set_observed_relays({measured.begin(), measured.end()});
  }

  std::vector<std::vector<tor::event>> out{params.dcs};
  net.set_event_sink([&](const tor::event& ev) {
    const std::size_t dc = dc_of.at(ev.observer);
    if (!only.has_value() || dc == *only) out[dc].push_back(ev);
  });

  const bool mixed = params.model == "mixed";
  const std::uint64_t days = std::max<std::uint64_t>(1, params.days);

  // Drivers are created once and persist across days: their RNG streams,
  // the churned client population, and the onion-service universe carry
  // over day to day — exactly like a real multi-day deployment.
  std::optional<geoip_db> geo;
  std::optional<population> pop;
  std::optional<alexa_list> alexa;
  std::optional<browsing_driver> browser;
  std::vector<tor::client_id> browsing_clients;  // non-mixed browsing model
  std::optional<onion_driver> onion;
  std::vector<tor::client_id> bots;

  if (mixed || params.model == "population") {
    geo.emplace(geoip_db::make_synthetic());
    population_params pp;
    pp.network_scale = params.scale;
    pp.seed = params.seed;
    pop.emplace(net, *geo, pp);
  }
  if (mixed || params.model == "browsing") {
    alexa.emplace(
        alexa_list::make_synthetic({.size = 50'000, .seed = params.seed}));
    browsing_params bp;
    bp.seed = params.seed;
    browser.emplace(net, *alexa, bp);
    if (!mixed) {
      const auto n =
          static_cast<std::size_t>(std::max(20.0, 6.9e6 * params.scale));
      for (std::size_t i = 0; i < n; ++i) {
        tor::client_profile p;
        p.ip = static_cast<std::uint32_t>(i + 1);
        browsing_clients.push_back(net.add_client(p));
      }
    }
  }
  if (mixed || params.model == "onion") {
    onion_params op;
    op.network_scale = params.scale;
    op.seed = params.seed;
    onion.emplace(net, op);
    for (std::size_t i = 0; i < 32; ++i) {
      tor::client_profile p;
      p.ip = 0xc0000000u + static_cast<std::uint32_t>(i);
      bots.push_back(net.add_client(p));
    }
  }

  for (std::uint64_t d = 0; d < days; ++d) {
    const sim_time day_start{static_cast<std::int64_t>(d) * k_seconds_per_day};
    if (pop.has_value()) {
      pop->advance_to_day(static_cast<int>(d));  // churn between days
      pop->run_entry_day(day_start);
    }
    if (browser.has_value()) {
      browser->run_day(
          mixed ? pop->active_of(client_class::web) : browsing_clients,
          day_start);
    }
    if (onion.has_value()) onion->run_day(bots, bots, day_start);
  }

  // Per-DC time order (stable: generation order breaks timestamp ties).
  for (auto& events : out) {
    std::stable_sort(events.begin(), events.end(),
                     [](const tor::event& a, const tor::event& b) {
                       return a.at.seconds < b.at.seconds;
                     });
  }
  return out;
}

}  // namespace

const std::vector<std::string>& trace_models() {
  static const std::vector<std::string> models{"zipf", "browsing", "onion",
                                               "population", "mixed"};
  return models;
}

bool is_known_trace_model(std::string_view model) {
  const auto& models = trace_models();
  return std::find(models.begin(), models.end(), model) != models.end();
}

std::vector<std::vector<tor::event>> generate_trace_events(
    const trace_gen_params& params, std::optional<std::size_t> only_dc) {
  expects(params.dcs >= 1, "trace generation needs at least one DC");
  expects(!only_dc.has_value() || *only_dc < params.dcs,
          "DC index out of the generated range");
  if (!is_known_trace_model(params.model)) {
    throw precondition_error{"unknown trace model: " + params.model};
  }
  if (params.model == "zipf") return generate_zipf(params, only_dc);
  return generate_simulated(params, only_dc);
}

std::vector<std::size_t> write_trace_dir(const trace_gen_params& params,
                                         const std::string& dir) {
  return tor::write_trace_files(generate_trace_events(params), dir);
}

}  // namespace tormet::workload
