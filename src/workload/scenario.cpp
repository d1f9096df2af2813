#include "src/workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "src/core/instruments.h"
#include "src/tor/trace_file.h"
#include "src/util/check.h"
#include "src/util/file_io.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/workload/zipf.h"

namespace tormet::workload {

namespace {

constexpr std::string_view k_truth_magic = "tormet-ground-truth-v1";
constexpr std::int64_t k_bucket_s = 3'600;  // generation granularity

// Disjoint IP ranges per client population, so unique-client measurements
// see set swaps as distinct clients (the country_block migration, the
// Mevade bot influx, the flash-crowd audience).
constexpr std::uint32_t k_base_net = 0x0a00'0000u;      // resident clients
constexpr std::uint32_t k_surge_net = 0x0b00'0000u;     // flash-crowd audience
constexpr std::uint32_t k_bot_net = 0x0c00'0000u;       // botnet clients
constexpr std::uint32_t k_blocked_net = 0x0d00'0000u;   // censored country
constexpr std::uint32_t k_migrated_net = 0x0e00'0000u;  // post-block returns

[[nodiscard]] std::size_t base_clients(const scenario_params& p) {
  return static_cast<std::size_t>(
      std::max<long long>(32, std::llround(256.0 * p.scale)));
}

/// One client population: a contiguous IP range active over [from, until).
struct client_set {
  std::uint32_t net = 0;
  std::size_t count = 0;
  std::int64_t from = std::numeric_limits<std::int64_t>::min();
  std::int64_t until = std::numeric_limits<std::int64_t>::max();

  [[nodiscard]] bool active_at(std::int64_t t) const {
    return count > 0 && t >= from && t < until;
  }
  [[nodiscard]] std::uint32_t pick(rng& r) const {
    return net + static_cast<std::uint32_t>(r.below(count));
  }
};

/// Everything generate() needs beyond the rate envelope: which populations
/// exist, when surge populations dominate, and where surge traffic goes.
struct scenario_recipe {
  scenario_shape shape;
  client_set base;
  client_set surge;          // flash_crowd / botnet_surge extra population
  double surge_share = 0.0;  // P(action comes from surge set while active)
  std::string surge_target;  // non-empty: surge streams hit this hostname
  double surge_target_share = 0.0;
  client_set blocked;   // country_block: censored-country residents
  client_set migrated;  // country_block: returnees on fresh IPs
};

[[nodiscard]] scenario_recipe recipe_of(const scenario_params& p) {
  const std::int64_t span =
      static_cast<std::int64_t>(std::max<std::uint64_t>(1, p.days)) *
      k_seconds_per_day;
  const std::size_t b = base_clients(p);
  scenario_recipe r;
  r.base = {k_base_net, b, std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()};
  if (p.name == "diurnal") {
    r.shape.rate.sin_amplitude = 0.75;
    r.shape.rate.sin_period_s = k_seconds_per_day;
  } else if (p.name == "flash_crowd") {
    // An 8x surge for the middle fifth of the middle day: a mostly-fresh
    // audience (3x the resident population) piling onto one target.
    const std::int64_t day0 =
        static_cast<std::int64_t>(p.days / 2) * k_seconds_per_day;
    const std::int64_t start = day0 + (k_seconds_per_day * 2) / 5;
    const std::int64_t end = day0 + (k_seconds_per_day * 3) / 5;
    r.shape.rate.segments.push_back({start, end, 8.0});
    r.surge = {k_surge_net, 3 * b, start, end};
    r.surge_share = 7.0 / 8.0;  // the rate excess is all surge clients
    r.surge_target = "crowd.example.com";
    r.surge_target_share = 0.8;
  } else if (p.name == "botnet_surge") {
    // The Mevade shape: from mid-span the event rate doubles, the excess
    // being bots (a population the size of the resident one) polling C&C.
    r.shape.rate.segments.push_back({span / 2, span, 2.0});
    r.surge = {k_bot_net, b, span / 2, span};
    r.surge_share = 0.5;
    r.surge_target = "cc.botnet.example.com";
    r.surge_target_share = 1.0;
  } else if (p.name == "relay_churn") {
    // Staggered per-DC outages: DC k is dark for the second half of its
    // 1/dcs slice of the span, so every round sees some capacity missing
    // but never all of it at once.
    for (std::size_t k = 0; k < p.dcs; ++k) {
      const std::int64_t slot = span / static_cast<std::int64_t>(p.dcs);
      const std::int64_t slot_start = static_cast<std::int64_t>(k) * slot;
      r.shape.dropouts.push_back({k, slot_start + slot / 2, slot_start + slot});
    }
  } else if (p.name == "country_block") {
    // A censorship event: 3/7 of the resident count live in the blocked
    // country and vanish at mid-span; at 3/4-span 60% of them return on
    // fresh IPs (the migration unique-client measurements must see).
    const std::size_t blocked = std::max<std::size_t>(8, (b * 3) / 7);
    r.blocked = {k_blocked_net, blocked,
                 std::numeric_limits<std::int64_t>::min(), span / 2};
    r.migrated = {k_migrated_net, (blocked * 3) / 5, (span * 3) / 4,
                  std::numeric_limits<std::int64_t>::max()};
  } else {
    throw precondition_error{"unknown scenario: " + p.name};
  }
  return r;
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names{
      "flash_crowd", "diurnal", "botnet_surge", "relay_churn", "country_block"};
  return names;
}

bool is_known_scenario(std::string_view name) {
  const auto& names = scenario_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

double rate_envelope::at(std::int64_t t) const {
  double m = base;
  if (sin_amplitude != 0.0 && sin_period_s > 0) {
    const double phase = 2.0 * M_PI *
                         static_cast<double>(t % sin_period_s) /
                         static_cast<double>(sin_period_s);
    m *= 1.0 + sin_amplitude * std::sin(phase);
  }
  for (const envelope_segment& s : segments) {
    if (t >= s.start && t < s.end) m *= s.multiplier;
  }
  return std::max(0.0, m);
}

scenario_shape shape_of(const scenario_params& params) {
  return recipe_of(params).shape;
}

std::vector<std::vector<tor::event>> generate_scenario_events(
    const scenario_params& params, std::optional<std::size_t> only_dc) {
  expects(params.dcs >= 1, "scenario generation needs at least one DC");
  expects(!only_dc.has_value() || *only_dc < params.dcs,
          "DC index out of the generated range");
  if (!is_known_scenario(params.name)) {
    throw precondition_error{"unknown scenario: " + params.name};
  }
  const scenario_recipe recipe = recipe_of(params);
  const std::uint64_t days = std::max<std::uint64_t>(1, params.days);
  const double per_bucket =
      static_cast<double>(params.events) /
      (static_cast<double>(k_seconds_per_day) / k_bucket_s);

  rng r{params.seed};
  const zipf_sampler ranks{10'000, 1.0};
  std::vector<std::vector<tor::event>> out{params.dcs};

  const auto dc_down = [&](std::size_t dc, std::int64_t t) {
    for (const dropout_window& w : recipe.shape.dropouts) {
      if (w.dc == dc && t >= w.start && t < w.end) return true;
    }
    return false;
  };

  const std::int64_t span =
      static_cast<std::int64_t>(days) * k_seconds_per_day;
  for (std::int64_t t0 = 0; t0 < span; t0 += k_bucket_s) {
    const double m = recipe.shape.rate.at(t0 + k_bucket_s / 2);
    const double expected = per_bucket * m;
    std::uint64_t actions = static_cast<std::uint64_t>(expected);
    if (r.bernoulli(expected - static_cast<double>(actions))) ++actions;
    for (std::uint64_t i = 0; i < actions; ++i) {
      const std::int64_t t = t0 + static_cast<std::int64_t>(
                                      r.below(static_cast<std::uint64_t>(
                                          k_bucket_s)));
      // Pick the acting client: surge population while its window is open,
      // otherwise uniformly over whoever is resident at t.
      bool from_surge = false;
      std::uint32_t ip = 0;
      if (recipe.surge.active_at(t) && r.bernoulli(recipe.surge_share)) {
        from_surge = true;
        ip = recipe.surge.pick(r);
      } else {
        const bool blocked_live = recipe.blocked.active_at(t);
        const bool migrated_live = recipe.migrated.active_at(t);
        std::size_t pool = recipe.base.count +
                           (blocked_live ? recipe.blocked.count : 0) +
                           (migrated_live ? recipe.migrated.count : 0);
        std::uint64_t pick = r.below(pool);
        if (pick < recipe.base.count) {
          ip = recipe.base.net + static_cast<std::uint32_t>(pick);
        } else if (blocked_live &&
                   pick < recipe.base.count + recipe.blocked.count) {
          ip = recipe.blocked.net +
               static_cast<std::uint32_t>(pick - recipe.base.count);
        } else {
          ip = recipe.migrated.net +
               static_cast<std::uint32_t>(pick - recipe.base.count -
                                          (blocked_live ? recipe.blocked.count
                                                        : 0));
        }
      }
      // Stable client -> DC pinning (a client keeps its guard), so churn
      // dropouts dark a consistent slice of the population.
      const std::size_t dc = ip % params.dcs;
      if (dc_down(dc, t)) continue;  // relay dark: the action goes unobserved

      const auto observer = static_cast<tor::relay_id>(dc);
      const sim_time at{t};
      // Other DCs' events still draw their values above and below; they
      // are dropped here.
      const bool keep = !only_dc.has_value() || dc == *only_dc;
      const auto emit = [&](tor::event_body body) {
        if (keep) out[dc].push_back(tor::event{observer, at, std::move(body)});
      };
      emit(tor::entry_connection_event{ip});
      emit(tor::entry_circuit_event{ip, tor::circuit_kind::general});
      emit(tor::entry_data_event{
          ip, 600 + static_cast<std::uint64_t>(r.below(1'400))});
      tor::exit_stream_event stream;
      stream.is_initial = true;
      stream.port = r.bernoulli(0.8) ? 443 : 80;
      if (from_surge && !recipe.surge_target.empty() &&
          r.bernoulli(recipe.surge_target_share)) {
        stream.target = recipe.surge_target;
      } else {
        stream.target = "site" + std::to_string(ranks.sample(r)) + ".com";
      }
      emit(std::move(stream));
    }
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

scenario_truth compute_scenario_truth(
    const scenario_params& params,
    const std::vector<std::vector<tor::event>>& per_dc,
    const std::vector<std::string>& instruments,
    const std::vector<std::string>& extractors, std::uint32_t rounds,
    std::int64_t round_duration_s, std::int64_t round_gap_s) {
  scenario_truth truth;
  truth.scenario = params.name;
  truth.seed = params.seed;

  // The registry instruments ARE the measurement: running them here over
  // the raw events guarantees a noiseless pipeline round reproduces these
  // numbers exactly (same code, no alternate arithmetic to drift). Every
  // declared counter gets one slot of a single slab.
  std::vector<privcount::data_collector::instrument> ins;
  std::vector<std::vector<std::size_t>> slots;
  std::map<std::string, std::size_t> slot_of;
  for (const auto& name : instruments) {
    ins.push_back(core::instrument_by_name(name));
    slots.emplace_back();
    for (const auto& counter : ins.back()->counters()) {
      const std::size_t next = slot_of.size();
      slots.back().push_back(slot_of.emplace(counter, next).first->second);
    }
  }
  std::vector<psc::data_collector::extractor> exs;
  for (const auto& name : extractors) {
    exs.push_back(core::extractor_by_name(name));
  }

  const std::uint32_t n_rounds = std::max<std::uint32_t>(1, rounds);
  for (std::uint32_t i = 0; i < n_rounds; ++i) {
    // Mirror cli::round_window_for: single-round plans replay the whole
    // stream unwindowed.
    std::int64_t start = std::numeric_limits<std::int64_t>::min();
    std::int64_t end = std::numeric_limits<std::int64_t>::max();
    if (rounds > 1) {
      start = static_cast<std::int64_t>(i) * (round_duration_s + round_gap_s);
      end = start + round_duration_s;
    }
    scenario_round_truth rt;
    std::vector<std::uint64_t> slab(slot_of.size(), 0);
    std::vector<std::set<std::string>> distinct{exs.size()};
    for (const auto& events : per_dc) {
      for (const tor::event& ev : events) {
        if (ev.at.seconds < start || ev.at.seconds >= end) continue;
        ++rt.events;
        for (std::size_t k = 0; k < ins.size(); ++k) {
          ins[k]->ingest(&ev, 1, slots[k].data(), slab.data());
        }
        for (std::size_t e = 0; e < exs.size(); ++e) {
          if (auto item = exs[e](ev)) distinct[e].insert(*std::move(item));
        }
      }
    }
    for (const auto& [name, slot] : slot_of) {
      rt.counters.emplace_back(name, slab[slot]);
    }
    for (std::size_t e = 0; e < exs.size(); ++e) {
      rt.distinct.emplace_back(extractors[e], distinct[e].size());
    }
    truth.rounds.push_back(std::move(rt));
  }
  return truth;
}

std::string serialize_ground_truth(const scenario_truth& truth) {
  std::ostringstream out;
  out << k_truth_magic << "\n";
  out << "scenario " << truth.scenario << "\n";
  out << "seed " << truth.seed << "\n";
  out << "rounds " << truth.rounds.size() << "\n";
  for (std::size_t i = 0; i < truth.rounds.size(); ++i) {
    const scenario_round_truth& rt = truth.rounds[i];
    out << "round " << i << "\n";
    out << "events " << rt.events << "\n";
    for (const auto& [name, value] : rt.counters) {
      out << "counter " << name << " " << value << "\n";
    }
    for (const auto& [name, value] : rt.distinct) {
      out << "distinct " << name << " " << value << "\n";
    }
  }
  return out.str();
}

scenario_truth parse_ground_truth(std::string_view text) {
  scenario_truth truth;
  std::istringstream in{std::string{text}};
  std::string line;
  int line_no = 0;
  bool saw_magic = false;
  std::size_t declared_rounds = 0;
  const auto fail = [&](const std::string& why) {
    throw precondition_error{"ground truth line " + std::to_string(line_no) +
                             ": " + why};
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != k_truth_magic) {
        fail("expected header '" + std::string{k_truth_magic} + "'");
      }
      saw_magic = true;
      continue;
    }
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    const auto want = [&](bool ok) {
      if (!ok || ls.fail()) fail("malformed '" + key + "' entry");
    };
    if (key == "scenario") {
      ls >> truth.scenario;
      want(is_known_scenario(truth.scenario));
    } else if (key == "seed") {
      ls >> truth.seed;
      want(true);
    } else if (key == "rounds") {
      ls >> declared_rounds;
      want(declared_rounds >= 1 && declared_rounds <= 100'000);
    } else if (key == "round") {
      std::size_t index = 0;
      ls >> index;
      want(index == truth.rounds.size());
      if (truth.rounds.size() >= declared_rounds) {
        fail("more round blocks than the declared count");
      }
      truth.rounds.emplace_back();
    } else if (key == "events") {
      if (truth.rounds.empty()) fail("'events' before any round");
      ls >> truth.rounds.back().events;
      want(true);
    } else if (key == "counter" || key == "distinct") {
      if (truth.rounds.empty()) fail("'" + key + "' before any round");
      std::string name;
      std::uint64_t value = 0;
      ls >> name >> value;
      want(!name.empty());
      auto& dest = key == "counter" ? truth.rounds.back().counters
                                    : truth.rounds.back().distinct;
      dest.emplace_back(std::move(name), value);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!saw_magic) throw precondition_error{"ground truth: missing header"};
  if (truth.rounds.size() != declared_rounds) {
    throw precondition_error{"ground truth: expected " +
                             std::to_string(declared_rounds) +
                             " rounds, parsed " +
                             std::to_string(truth.rounds.size())};
  }
  return truth;
}

scenario_truth load_ground_truth(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text.has_value()) {
    throw precondition_error{"cannot read ground truth " + path};
  }
  return parse_ground_truth(*text);
}

void save_ground_truth(const scenario_truth& truth, const std::string& path) {
  util::write_file_atomic(path, as_bytes(serialize_ground_truth(truth)));
}

std::vector<std::size_t> write_scenario_dir(const scenario_params& params,
                                            const std::string& dir) {
  const std::vector<std::vector<tor::event>> per_dc =
      generate_scenario_events(params);
  std::vector<std::size_t> counts = tor::write_trace_files(per_dc, dir);
  const scenario_measurements m = measurements_for_scenario(params.name);
  const scenario_truth truth = compute_scenario_truth(
      params, per_dc, m.instruments, {m.psc_extractor},
      static_cast<std::uint32_t>(std::max<std::uint64_t>(1, params.days)),
      k_seconds_per_day, 0);
  save_ground_truth(truth, dir + "/ground_truth.cfg");
  return counts;
}

scenario_measurements measurements_for_scenario(std::string_view name) {
  if (!is_known_scenario(name)) {
    throw precondition_error{"unknown scenario: " + std::string{name}};
  }
  // Every scenario moves entry-side totals and the exit stream taxonomy,
  // and its client-set dynamics show up in unique client IPs.
  return {{"entry_totals", "stream_taxonomy"}, "client_ip"};
}

}  // namespace tormet::workload
