// The measurement catalogue: canonical PrivCount instruments (event ->
// counter increments) and PSC extractors (event -> distinct item) for every
// statistic in the paper's evaluation. Benches, examples, and tests compose
// these with deployments instead of hand-writing event matching.
//
// Every instrument is one immutable privcount::batch_instrument that
// declares its counters (counters()); counter naming convention:
// "<area>/<statistic>[/<bin>]". The functions below document the names they
// declare so callers can build matching counter_spec lists.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/privcount/data_collector.h"
#include "src/psc/data_collector.h"
#include "src/workload/ahmia.h"
#include "src/workload/alexa.h"
#include "src/workload/geoip.h"
#include "src/workload/suffix_list.h"

namespace tormet::core {

// ---------------------------------------------------------------------------
// PrivCount instruments
// ---------------------------------------------------------------------------

/// Fig 1 stream taxonomy. Counters: streams/total, streams/initial,
/// streams/initial/hostname, streams/initial/ipv4, streams/initial/ipv6,
/// streams/initial/hostname/web, streams/initial/hostname/other.
[[nodiscard]] privcount::data_collector::instrument instrument_stream_taxonomy();

/// A named set of domains for membership counting (Fig 2's rank and
/// sibling sets).
struct domain_set {
  std::string name;
  std::vector<std::string> domains;
};

/// Counts primary domains (initial stream + hostname + web port, §4.1) by
/// set membership. A hostname matches a set when it equals or is a
/// subdomain of any member; the *first* matching set (in the given order)
/// wins. Counters: <base>/<set-name> for each set and <base>/other.
[[nodiscard]] privcount::data_collector::instrument instrument_domain_sets(
    std::string base, std::vector<domain_set> sets);

/// Fig 3 TLD histogram over primary domains. Counters: <base>/<tld> for
/// each given TLD, <base>/other, and (when `separate_torproject`)
/// <base>/torproject.org counted apart. When `alexa` is non-null only
/// list-member domains are counted (the figure's second series).
[[nodiscard]] privcount::data_collector::instrument instrument_tld_histogram(
    std::string base, std::vector<std::string> tlds,
    std::shared_ptr<const workload::alexa_list> alexa, bool separate_torproject,
    std::shared_ptr<const workload::suffix_list> suffixes);

/// Table 4 entry-side totals. Counters: entry/connections, entry/circuits,
/// entry/bytes.
[[nodiscard]] privcount::data_collector::instrument instrument_entry_totals();

/// Fig 4 per-country usage. Counters: country/<CC>/connections,
/// country/<CC>/bytes, country/<CC>/circuits, country/<CC>/dir-requests
/// (directory circuits only — the Tor-Metrics baseline input) for each
/// listed code.
[[nodiscard]] privcount::data_collector::instrument instrument_country_usage(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::string> country_codes);

/// §5.2 AS hotspot counters: as/top1000/{connections,bytes,circuits} vs
/// as/other/{...} split by whether the client ASN is in `top_asns`.
[[nodiscard]] privcount::data_collector::instrument instrument_as_split(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::uint32_t> top_asns);

/// Table 7 HSDir descriptor counters: hsdir/publishes, hsdir/fetch/total,
/// hsdir/fetch/success, hsdir/fetch/failed, hsdir/fetch/success/public,
/// hsdir/fetch/success/unknown (public = present in the ahmia index).
[[nodiscard]] privcount::data_collector::instrument instrument_hsdir_descriptors(
    std::shared_ptr<const workload::ahmia_index> index);

/// Table 8 rendezvous counters: rend/circuits, rend/succeeded,
/// rend/conn-closed, rend/expired, rend/cells (payload cells on successful
/// circuits).
[[nodiscard]] privcount::data_collector::instrument instrument_rendezvous();

// ---------------------------------------------------------------------------
// PSC extractors (distinct-item measurements)
// ---------------------------------------------------------------------------

/// Unique client IPs at guards (Table 5).
[[nodiscard]] psc::data_collector::extractor extract_client_ip();

/// Unique client countries (Table 5) via the GeoIP substitute.
[[nodiscard]] psc::data_collector::extractor extract_client_country(
    std::shared_ptr<const workload::geoip_db> geo);

/// Unique client ASes (Table 5).
[[nodiscard]] psc::data_collector::extractor extract_client_asn(
    std::shared_ptr<const workload::geoip_db> geo);

/// Unique SLDs of primary domains (Table 2). When `alexa` is non-null,
/// restricted to SLDs of Alexa-listed domains.
[[nodiscard]] psc::data_collector::extractor extract_primary_sld(
    std::shared_ptr<const workload::suffix_list> suffixes,
    std::shared_ptr<const workload::alexa_list> alexa);

/// Unique onion addresses published to our HSDirs (Table 6).
[[nodiscard]] psc::data_collector::extractor extract_published_address();

/// Unique onion addresses successfully fetched from our HSDirs (Table 6).
[[nodiscard]] psc::data_collector::extractor extract_fetched_address();

// ---------------------------------------------------------------------------
// Name registry
// ---------------------------------------------------------------------------
// Deployment plans (cli::deployment_plan) reference instruments and
// extractors by name, so every process of a distributed round — and the
// in-process reference round — resolves the identical measurement from the
// same plan text. Every registered entry is self-contained: its auxiliary
// inputs are rebuilt deterministically with no per-round parameters.
// Parameterized instruments are registered through canonical
// instantiations:
//   "tld_histogram" — Fig 3's measured TLD list over the embedded suffix
//       list, torproject.org separated, no Alexa filter.
//   "domain_sets"   — Fig 2's rank buckets ((0,10], (10,100], ...) over the
//       canonical synthetic Alexa list, torproject.org separated.
//   "hsdir_ahmia"   — Table 7's HSDir fetch classification against a
//       deterministic ahmia index covering the paper's 56.8 % of the
//       canonical synthetic service universe.
// Instantiations with round-specific parameters still compose in code.

/// Registered instrument names: "stream_taxonomy", "entry_totals",
/// "rendezvous", "tld_histogram", "domain_sets", "hsdir_ahmia".
[[nodiscard]] const std::vector<std::string>& instrument_names();
/// Builds a registered instrument; throws precondition_error on an unknown
/// name.
[[nodiscard]] privcount::data_collector::instrument instrument_by_name(
    const std::string& name);
/// Canonical counter specs for a registered instrument — the counters its
/// increments feed, with paper-derived default sensitivities. A plan built
/// from these measures everything the instrument emits.
[[nodiscard]] std::vector<privcount::counter_spec> default_specs_for(
    const std::string& instrument_name);

/// Registered extractor names: "client_ip", "client_country", "client_asn",
/// "primary_sld", "published_address", "fetched_address".
[[nodiscard]] const std::vector<std::string>& extractor_names();
/// Resolves a registered extractor (rebuilding its GeoIP/suffix-list inputs
/// deterministically); throws precondition_error on an unknown name.
[[nodiscard]] psc::data_collector::extractor extractor_by_name(
    const std::string& name);

}  // namespace tormet::core
