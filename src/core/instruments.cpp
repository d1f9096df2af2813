#include "src/core/instruments.h"

#include <optional>
#include <set>
#include <unordered_map>

#include "src/util/bytes.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace tormet::core {

namespace {

using privcount::make_instrument;

/// True for the streams whose hostnames the paper calls primary domains:
/// a circuit's initial stream naming a hostname on a web port (§4.1).
[[nodiscard]] const tor::exit_stream_event* primary_domain_of(const tor::event& ev) {
  const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
  if (s == nullptr || !s->is_initial) return nullptr;
  if (s->kind != tor::address_kind::hostname) return nullptr;
  if (s->port != 80 && s->port != 443) return nullptr;
  return s;
}

/// Walks `hostname` and its parent domains through `index`, returning the
/// first match ("www.amazon.com" matches an entry for "amazon.com").
template <typename Map>
[[nodiscard]] auto find_by_suffix(const Map& index, std::string_view hostname)
    -> decltype(index.end()) {
  std::string_view rest = hostname;
  for (;;) {
    const auto it = index.find(std::string{rest});
    if (it != index.end()) return it;
    const std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos) return index.end();
    rest.remove_prefix(dot + 1);
  }
}

/// True when `hostname` or one of its parent domains is on the list.
[[nodiscard]] bool alexa_listed(const workload::alexa_list& alexa,
                                std::string_view hostname) {
  for (std::string_view rest = hostname;;) {
    if (alexa.contains(rest)) return true;
    const std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos) return false;
    rest.remove_prefix(dot + 1);
  }
}

/// The entry-side totals a client's events feed, in counter-index order
/// for instruments that lay them out per group (see entry_usage_of).
enum entry_kind : std::size_t { connections, circuits, bytes, dir_requests };
constexpr const char* k_entry_kind_names[] = {"connections", "circuits",
                                              "bytes", "dir-requests"};

/// One entry-side event as usage: its client, the total it feeds and by
/// how much, and whether it is a directory circuit.
struct entry_usage {
  std::uint32_t client_ip;
  entry_kind kind;
  std::uint64_t amount;
  bool directory;
};

[[nodiscard]] std::optional<entry_usage> entry_usage_of(const tor::event& ev) {
  if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
    return entry_usage{c->client_ip, connections, 1, false};
  }
  if (const auto* c = std::get_if<tor::entry_circuit_event>(&ev.body)) {
    return entry_usage{c->client_ip, circuits, 1,
                       c->kind == tor::circuit_kind::directory};
  }
  if (const auto* d = std::get_if<tor::entry_data_event>(&ev.body)) {
    return entry_usage{d->client_ip, bytes, d->bytes, false};
  }
  return std::nullopt;
}

}  // namespace

privcount::data_collector::instrument instrument_stream_taxonomy() {
  enum : std::size_t { total, initial, hostname, ipv4, ipv6, web, other };
  return make_instrument(
      {"streams/total", "streams/initial", "streams/initial/hostname",
       "streams/initial/ipv4", "streams/initial/ipv6",
       "streams/initial/hostname/web", "streams/initial/hostname/other"},
      [](const tor::event& ev, const auto& add) {
        const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
        if (s == nullptr) return;
        add(total, 1);
        if (!s->is_initial) return;
        add(initial, 1);
        switch (s->kind) {
          case tor::address_kind::hostname:
            add(hostname, 1);
            add(s->port == 80 || s->port == 443 ? web : other, 1);
            break;
          case tor::address_kind::ipv4:
            add(ipv4, 1);
            break;
          case tor::address_kind::ipv6:
            add(ipv6, 1);
            break;
        }
      });
}

privcount::data_collector::instrument instrument_domain_sets(
    std::string base, std::vector<domain_set> sets) {
  // domain -> set index (= counter index) with first-set-wins semantics;
  // the counter after the sets is <base>/other.
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::string> counters;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    counters.push_back(base + "/" + sets[i].name);
    for (const auto& d : sets[i].domains) {
      index.emplace(d, i);  // emplace keeps the first set that claimed d
    }
  }
  const std::size_t other = counters.size();
  counters.push_back(base + "/other");
  return make_instrument(
      std::move(counters),
      [index = std::move(index), other](const tor::event& ev, const auto& add) {
        const auto* s = primary_domain_of(ev);
        if (s == nullptr) return;
        const auto it = find_by_suffix(index, s->target);
        add(it == index.end() ? other : it->second, 1);
      });
}

privcount::data_collector::instrument instrument_tld_histogram(
    std::string base, std::vector<std::string> tlds,
    std::shared_ptr<const workload::alexa_list> alexa, bool separate_torproject,
    std::shared_ptr<const workload::suffix_list> suffixes) {
  expects(suffixes != nullptr, "tld histogram needs a suffix list");
  std::unordered_map<std::string, std::size_t> tld_index;  // tld -> counter
  std::vector<std::string> counters;
  for (const auto& tld : tlds) {
    tld_index.emplace(tld, counters.size());
    counters.push_back(base + "/" + tld);
  }
  const std::size_t other = counters.size();
  counters.push_back(base + "/other");
  const std::size_t torproject = counters.size();
  if (separate_torproject) counters.push_back(base + "/torproject.org");
  return make_instrument(
      std::move(counters),
      [tld_index = std::move(tld_index), alexa = std::move(alexa),
       separate_torproject, other,
       torproject](const tor::event& ev, const auto& add) {
        const auto* s = primary_domain_of(ev);
        if (s == nullptr) return;
        if (separate_torproject &&
            workload::hostname_matches_domain(s->target, "torproject.org")) {
          add(torproject, 1);
          return;
        }
        if (alexa != nullptr && !alexa_listed(*alexa, s->target)) return;
        const auto tld = workload::suffix_list::tld_of(s->target);
        if (!tld.has_value()) return;
        const auto it = tld_index.find(*tld);
        add(it == tld_index.end() ? other : it->second, 1);
      });
}

privcount::data_collector::instrument instrument_entry_totals() {
  // Counter indices are entry_kind values.
  return make_instrument({"entry/connections", "entry/circuits", "entry/bytes"},
                         [](const tor::event& ev, const auto& add) {
                           if (const auto u = entry_usage_of(ev)) {
                             add(u->kind, u->amount);
                           }
                         });
}

privcount::data_collector::instrument instrument_country_usage(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::string> country_codes) {
  expects(geo != nullptr, "country usage needs a geoip db");
  // Every listed code owns one counter per entry_kind, from its first.
  std::unordered_map<std::uint16_t, std::size_t> first_counter;
  std::vector<std::string> counters;
  for (const auto& code : country_codes) {
    first_counter[geo->index_of(code)] = counters.size();
    for (const char* kind : k_entry_kind_names) {
      counters.push_back("country/" + code + "/" + kind);
    }
  }
  return make_instrument(
      std::move(counters),
      [geo = std::move(geo), first_counter = std::move(first_counter)](
          const tor::event& ev, const auto& add) {
        const auto u = entry_usage_of(ev);
        if (!u) return;
        const auto it = first_counter.find(geo->country_of(u->client_ip));
        if (it == first_counter.end()) return;
        add(it->second + u->kind, u->amount);
        // Directory requests feed the Tor-Metrics-style baseline estimator
        // (stats/metrics_portal.h) — the §5.2 UAE-discrepancy comparison.
        if (u->directory) add(it->second + dir_requests, u->amount);
      });
}

privcount::data_collector::instrument instrument_as_split(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::uint32_t> top_asns) {
  expects(geo != nullptr, "as split needs a geoip db");
  // as/<group>/<kind> for every entry_kind before dir_requests, top1000
  // group first.
  constexpr std::size_t per_group = dir_requests;
  std::vector<std::string> counters;
  for (const char* group : {"top1000", "other"}) {
    for (const entry_kind kind : {connections, circuits, bytes}) {
      counters.push_back(std::string{"as/"} + group + "/" +
                         k_entry_kind_names[kind]);
    }
  }
  return make_instrument(
      std::move(counters),
      [geo = std::move(geo),
       top = std::set<std::uint32_t>(top_asns.begin(), top_asns.end())](
          const tor::event& ev, const auto& add) {
        const auto u = entry_usage_of(ev);
        if (!u) return;
        const bool is_top = top.contains(geo->asn_of(u->client_ip));
        add((is_top ? 0 : per_group) + u->kind, u->amount);
      });
}

privcount::data_collector::instrument instrument_hsdir_descriptors(
    std::shared_ptr<const workload::ahmia_index> index) {
  expects(index != nullptr, "hsdir instrument needs an ahmia index");
  enum : std::size_t { publishes, total, success, failed, pub, unknown };
  return make_instrument(
      {"hsdir/publishes", "hsdir/fetch/total", "hsdir/fetch/success",
       "hsdir/fetch/failed", "hsdir/fetch/success/public",
       "hsdir/fetch/success/unknown"},
      [index = std::move(index)](const tor::event& ev, const auto& add) {
        if (std::holds_alternative<tor::hsdir_publish_event>(ev.body)) {
          add(publishes, 1);
          return;
        }
        const auto* f = std::get_if<tor::hsdir_fetch_event>(&ev.body);
        if (f == nullptr) return;
        add(total, 1);
        if (f->outcome == tor::fetch_outcome::success) {
          add(success, 1);
          add(index->contains(f->address) ? pub : unknown, 1);
        } else {
          add(failed, 1);
        }
      });
}

privcount::data_collector::instrument instrument_rendezvous() {
  enum : std::size_t { circuits, succeeded, conn_closed, expired, cells };
  return make_instrument(
      {"rend/circuits", "rend/succeeded", "rend/conn-closed", "rend/expired",
       "rend/cells"},
      [](const tor::event& ev, const auto& add) {
        const auto* r = std::get_if<tor::rend_circuit_event>(&ev.body);
        if (r == nullptr) return;
        add(circuits, 1);
        switch (r->outcome) {
          case tor::rend_outcome::succeeded:
            add(succeeded, 1);
            add(cells, r->payload_cells);
            break;
          case tor::rend_outcome::failed_conn_closed:
            add(conn_closed, 1);
            break;
          case tor::rend_outcome::failed_expired:
            add(expired, 1);
            break;
        }
      });
}

// ---------------------------------------------------------------------------
// PSC extractors
// ---------------------------------------------------------------------------

psc::data_collector::extractor extract_client_ip() {
  return [](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return "ip:" + std::to_string(c->client_ip);
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_client_country(
    std::shared_ptr<const workload::geoip_db> geo) {
  expects(geo != nullptr, "country extractor needs a geoip db");
  return [geo](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return "cc:" + geo->countries()[geo->country_of(c->client_ip)].code;
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_client_asn(
    std::shared_ptr<const workload::geoip_db> geo) {
  expects(geo != nullptr, "asn extractor needs a geoip db");
  return [geo](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return "as:" + std::to_string(geo->asn_of(c->client_ip));
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_primary_sld(
    std::shared_ptr<const workload::suffix_list> suffixes,
    std::shared_ptr<const workload::alexa_list> alexa) {
  expects(suffixes != nullptr, "sld extractor needs a suffix list");
  return [suffixes, alexa](const tor::event& ev) -> std::optional<std::string> {
    const auto* s = primary_domain_of(ev);
    if (s == nullptr) return std::nullopt;
    const auto sld = suffixes->sld_of(s->target);
    if (!sld.has_value()) return std::nullopt;
    if (alexa != nullptr && !alexa_listed(*alexa, s->target)) return std::nullopt;
    return "sld:" + *sld;
  };
}

psc::data_collector::extractor extract_published_address() {
  return [](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* p = std::get_if<tor::hsdir_publish_event>(&ev.body)) {
      return "pub:" + p->address.value;
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_fetched_address() {
  return [](const tor::event& ev) -> std::optional<std::string> {
    const auto* f = std::get_if<tor::hsdir_fetch_event>(&ev.body);
    if (f == nullptr || f->outcome != tor::fetch_outcome::success) {
      return std::nullopt;
    }
    return "fetch:" + f->address.value;
  };
}

// ---------------------------------------------------------------------------
// Name registry
// ---------------------------------------------------------------------------

namespace {

/// Canonical parameters of the registered parameterized instruments. These
/// are frozen: every process of a distributed round (and the in-process
/// reference) must instantiate bit-identical measurements from the name
/// alone.
const std::vector<std::string>& canonical_tlds() {
  // Fig 3's measured TLD list.
  static const std::vector<std::string> tlds{
      "com", "org", "net", "br", "cn", "de", "fr", "in", "ir", "it", "jp",
      "pl", "ru", "uk"};
  return tlds;
}

constexpr std::size_t k_canonical_alexa_size = 20'000;
constexpr std::uint64_t k_canonical_alexa_seed = 3;

const std::shared_ptr<const workload::alexa_list>& canonical_alexa() {
  static const auto list = std::make_shared<const workload::alexa_list>(
      workload::alexa_list::make_synthetic(
          {.size = k_canonical_alexa_size, .seed = k_canonical_alexa_seed}));
  return list;
}

/// Fig 2's rank buckets over the canonical Alexa list: torproject.org
/// apart, then (0,10], (10,100], (100,1000], (1000,10000].
std::vector<domain_set> canonical_rank_sets() {
  const workload::alexa_list& alexa = *canonical_alexa();
  std::vector<domain_set> sets;
  sets.push_back({"torproject.org", {"torproject.org"}});
  std::uint32_t lo = 0;
  for (std::uint32_t hi = 10; hi <= alexa.size(); hi *= 10) {
    domain_set set;
    set.name = "(" + std::to_string(lo) + "," + std::to_string(hi) + "]";
    set.domains.reserve(hi - lo);
    for (std::uint32_t rank = lo + 1; rank <= hi; ++rank) {
      const std::string& d = alexa.domain_at_rank(rank);
      if (d != "torproject.org") set.domains.push_back(d);
    }
    sets.push_back(std::move(set));
    lo = hi;
  }
  return sets;
}

const std::vector<std::string>& canonical_rank_set_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& set : canonical_rank_sets()) out.push_back(set.name);
    return out;
  }();
  return names;
}

/// The ahmia index over the canonical synthetic service universe. Onion
/// addresses are a pure function of the service's creation index
/// (tor::network::add_onion_service), so indexing a prefix of that
/// universe deterministically classifies any simulated trace's services;
/// the paper found 56.8 % of fetched services in ahmia's index.
constexpr std::size_t k_canonical_service_universe = 4096;
constexpr double k_ahmia_public_fraction = 0.568;
constexpr std::uint64_t k_canonical_ahmia_seed = 4242;

const std::shared_ptr<const workload::ahmia_index>& canonical_ahmia() {
  static const auto index = [] {
    std::vector<tor::onion_address> universe;
    universe.reserve(k_canonical_service_universe);
    for (std::size_t i = 0; i < k_canonical_service_universe; ++i) {
      const std::string key_material =
          "tormet.service.key." + std::to_string(i);
      universe.push_back(tor::derive_onion_address(as_bytes(key_material)));
    }
    rng r{k_canonical_ahmia_seed};
    return std::make_shared<const workload::ahmia_index>(
        workload::ahmia_index::make(universe, k_ahmia_public_fraction, r));
  }();
  return index;
}

const std::shared_ptr<const workload::suffix_list>& canonical_suffixes() {
  static const auto suffixes = std::make_shared<const workload::suffix_list>(
      workload::suffix_list::embedded());
  return suffixes;
}

}  // namespace

const std::vector<std::string>& instrument_names() {
  static const std::vector<std::string> names{
      "stream_taxonomy", "entry_totals", "rendezvous",
      "tld_histogram",   "domain_sets",  "hsdir_ahmia"};
  return names;
}

privcount::data_collector::instrument instrument_by_name(
    const std::string& name) {
  if (name == "stream_taxonomy") return instrument_stream_taxonomy();
  if (name == "entry_totals") return instrument_entry_totals();
  if (name == "rendezvous") return instrument_rendezvous();
  if (name == "tld_histogram") {
    return instrument_tld_histogram("tld", canonical_tlds(), nullptr,
                                    /*separate_torproject=*/true,
                                    canonical_suffixes());
  }
  if (name == "domain_sets") {
    return instrument_domain_sets("sites", canonical_rank_sets());
  }
  if (name == "hsdir_ahmia") {
    return instrument_hsdir_descriptors(canonical_ahmia());
  }
  throw precondition_error{"unknown instrument: " + name};
}

std::vector<privcount::counter_spec> default_specs_for(
    const std::string& instrument_name) {
  // Sensitivities follow the paper's action bounds (Table 1: 20 domains per
  // user-day, 12 connections, 651 circuits; stream totals bound by
  // 20 domains x ~20 streams). Expected values are magnitude guesses for
  // the equal-relative-noise budget split — operators tune them per round.
  if (instrument_name == "stream_taxonomy") {
    return {{"streams/total", 400.0, 6e4},
            {"streams/initial", 20.0, 3e3},
            {"streams/initial/hostname", 20.0, 3e3},
            {"streams/initial/ipv4", 20.0, 500},
            {"streams/initial/ipv6", 20.0, 500},
            {"streams/initial/hostname/web", 20.0, 3e3},
            {"streams/initial/hostname/other", 20.0, 500}};
  }
  if (instrument_name == "entry_totals") {
    return {{"entry/connections", 12.0, 2e3},
            {"entry/circuits", 651.0, 1.7e4},
            {"entry/bytes", 407e6, 7e9}};
  }
  if (instrument_name == "rendezvous") {
    return {{"rend/circuits", 651.0, 1e4},
            {"rend/succeeded", 651.0, 1e3},
            {"rend/conn-closed", 651.0, 500},
            {"rend/expired", 651.0, 1e4},
            {"rend/cells", 1e6, 1e6}};
  }
  if (instrument_name == "tld_histogram") {
    std::vector<privcount::counter_spec> specs;
    for (const auto& tld : canonical_tlds()) {
      specs.push_back({"tld/" + tld, 20.0, 500});
    }
    specs.push_back({"tld/other", 20.0, 500});
    specs.push_back({"tld/torproject.org", 20.0, 5e3});
    return specs;
  }
  if (instrument_name == "domain_sets") {
    std::vector<privcount::counter_spec> specs;
    for (const auto& set_name : canonical_rank_set_names()) {
      specs.push_back({"sites/" + set_name, 20.0, 1e3});
    }
    specs.push_back({"sites/other", 20.0, 3e3});
    return specs;
  }
  if (instrument_name == "hsdir_ahmia") {
    return {{"hsdir/publishes", 24.0, 2e3},
            {"hsdir/fetch/total", 10.0, 1e3},
            {"hsdir/fetch/success", 10.0, 1e3},
            {"hsdir/fetch/failed", 10.0, 1e3},
            {"hsdir/fetch/success/public", 10.0, 500},
            {"hsdir/fetch/success/unknown", 10.0, 500}};
  }
  throw precondition_error{"unknown instrument: " + instrument_name};
}

const std::vector<std::string>& extractor_names() {
  static const std::vector<std::string> names{
      "client_ip",   "client_country",    "client_asn",
      "primary_sld", "published_address", "fetched_address"};
  return names;
}

psc::data_collector::extractor extractor_by_name(const std::string& name) {
  if (name == "client_ip") return extract_client_ip();
  if (name == "client_country") {
    return extract_client_country(std::make_shared<const workload::geoip_db>(
        workload::geoip_db::make_synthetic()));
  }
  if (name == "client_asn") {
    return extract_client_asn(std::make_shared<const workload::geoip_db>(
        workload::geoip_db::make_synthetic()));
  }
  if (name == "primary_sld") {
    return extract_primary_sld(canonical_suffixes(), nullptr);
  }
  if (name == "published_address") return extract_published_address();
  if (name == "fetched_address") return extract_fetched_address();
  throw precondition_error{"unknown extractor: " + name};
}

}  // namespace tormet::core
