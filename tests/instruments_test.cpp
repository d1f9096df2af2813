// Direct unit tests for the core instrument/extractor catalogue: every
// event-to-counter mapping and every PSC item extractor.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "src/core/instruments.h"

namespace tormet::core {
namespace {

using counter_map = std::map<std::string, std::uint64_t>;

/// The counts `ins` adds for `events`, by counter name, through its own
/// ingest over a slab with one slot per declared counter. Counters left at
/// zero are absent.
[[nodiscard]] counter_map run_instrument(
    const privcount::data_collector::instrument& ins,
    const std::vector<tor::event>& events) {
  const auto& names = ins->counters();
  std::vector<std::size_t> slots(names.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::vector<std::uint64_t> slab(names.size(), 0);
  ins->ingest(events.data(), events.size(), slots.data(), slab.data());
  counter_map out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (slab[i] != 0) out[names[i]] += slab[i];
  }
  return out;
}

[[nodiscard]] counter_map run_instrument(
    const privcount::data_collector::instrument& ins, const tor::event& ev) {
  return run_instrument(ins, std::vector<tor::event>{ev});
}

[[nodiscard]] tor::event stream_event(std::string host, bool initial = true,
                                      std::uint16_t port = 443,
                                      tor::address_kind kind =
                                          tor::address_kind::hostname) {
  tor::event ev;
  ev.body = tor::exit_stream_event{kind, initial, port, std::move(host)};
  return ev;
}

TEST(StreamTaxonomyTest, CountsAllCategories) {
  const auto fn = instrument_stream_taxonomy();

  counter_map m = run_instrument(fn, stream_event("a.com"));
  EXPECT_EQ(m["streams/total"], 1u);
  EXPECT_EQ(m["streams/initial"], 1u);
  EXPECT_EQ(m["streams/initial/hostname"], 1u);
  EXPECT_EQ(m["streams/initial/hostname/web"], 1u);

  m = run_instrument(fn, stream_event("a.com", /*initial=*/false));
  EXPECT_EQ(m["streams/total"], 1u);
  EXPECT_EQ(m.count("streams/initial"), 0u);

  m = run_instrument(fn, stream_event("9.9.9.9", true, 443, tor::address_kind::ipv4));
  EXPECT_EQ(m["streams/initial/ipv4"], 1u);

  m = run_instrument(fn, stream_event("a.com", true, 8080));
  EXPECT_EQ(m["streams/initial/hostname/other"], 1u);

  // Non-stream events contribute nothing.
  tor::event other;
  other.body = tor::entry_connection_event{1};
  EXPECT_TRUE(run_instrument(fn, other).empty());
}

TEST(DomainSetsTest, FirstMatchWinsAndSubdomainsMatch) {
  const auto fn = instrument_domain_sets(
      "s", {{"tor", {"torproject.org"}},
            {"amz", {"amazon.com", "amazon.de"}},
            {"dup", {"amazon.com"}}});  // shadowed by "amz"

  EXPECT_EQ(run_instrument(fn, stream_event("onionoo.torproject.org"))["s/tor"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("www.amazon.com"))["s/amz"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("amazon.de"))["s/amz"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("unknown.net"))["s/other"], 1u);
  // The duplicated domain stays with the first set that registered it.
  EXPECT_EQ(run_instrument(fn, stream_event("amazon.com")).count("s/dup"), 0u);
}

TEST(DomainSetsTest, OnlyPrimaryDomainsCount) {
  const auto fn = instrument_domain_sets("s", {{"tor", {"torproject.org"}}});
  EXPECT_TRUE(run_instrument(fn, stream_event("torproject.org", /*initial=*/false)).empty());
  EXPECT_TRUE(run_instrument(fn, stream_event("torproject.org", true, 9001)).empty());
  EXPECT_TRUE(
      run_instrument(fn, stream_event("1.2.3.4", true, 443, tor::address_kind::ipv4))
          .empty());
}

TEST(TldHistogramTest, CountsByTld) {
  const auto suffixes =
      std::make_shared<const workload::suffix_list>(workload::suffix_list::embedded());
  const auto fn = instrument_tld_histogram("tld", {"com", "ru"}, nullptr,
                                           /*separate_torproject=*/false,
                                           suffixes);
  EXPECT_EQ(run_instrument(fn, stream_event("a.b.com"))["tld/com"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("x.ru"))["tld/ru"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("y.de"))["tld/other"], 1u);
}

TEST(TldHistogramTest, TorprojectSeparationAndAlexaFilter) {
  const auto suffixes =
      std::make_shared<const workload::suffix_list>(workload::suffix_list::embedded());
  const auto alexa = std::make_shared<const workload::alexa_list>(
      workload::alexa_list::make_synthetic({.size = 20'000, .seed = 5}));
  const auto fn = instrument_tld_histogram("tld", {"com", "org"}, alexa,
                                           /*separate_torproject=*/true,
                                           suffixes);
  EXPECT_EQ(run_instrument(fn, stream_event("onionoo.torproject.org"))["tld/torproject.org"],
            1u);
  // Alexa-listed .com counts; unlisted domains are skipped entirely.
  EXPECT_EQ(run_instrument(fn, stream_event("www.google.com"))["tld/com"], 1u);
  EXPECT_TRUE(run_instrument(fn, stream_event("definitely-not-listed.com")).empty());
}

TEST(EntryTotalsTest, CountsConnectionsCircuitsBytes) {
  const auto fn = instrument_entry_totals();
  tor::event conn;
  conn.body = tor::entry_connection_event{1};
  EXPECT_EQ(run_instrument(fn, conn)["entry/connections"], 1u);

  tor::event circ;
  circ.body = tor::entry_circuit_event{1, tor::circuit_kind::directory};
  EXPECT_EQ(run_instrument(fn, circ)["entry/circuits"], 1u);

  tor::event data;
  data.body = tor::entry_data_event{1, 4096};
  EXPECT_EQ(run_instrument(fn, data)["entry/bytes"], 4096u);
}

TEST(CountryUsageTest, MapsIpsToCountries) {
  const auto geo = std::make_shared<const workload::geoip_db>(
      workload::geoip_db::make_synthetic());
  const auto fn = instrument_country_usage(geo, {"US", "DE"});

  // Build IPs in the US and DE blocks via a mutable copy (allocate_ip is
  // stateful); country_of is what the instrument consults.
  workload::geoip_db mutable_geo = workload::geoip_db::make_synthetic();
  const std::uint32_t us_ip = mutable_geo.allocate_ip(mutable_geo.index_of("US"));
  const std::uint32_t de_ip = mutable_geo.allocate_ip(mutable_geo.index_of("DE"));
  const std::uint32_t fr_ip = mutable_geo.allocate_ip(mutable_geo.index_of("FR"));

  tor::event ev;
  ev.body = tor::entry_connection_event{us_ip};
  EXPECT_EQ(run_instrument(fn, ev)["country/US/connections"], 1u);
  ev.body = tor::entry_data_event{de_ip, 100};
  EXPECT_EQ(run_instrument(fn, ev)["country/DE/bytes"], 100u);
  ev.body = tor::entry_circuit_event{de_ip, tor::circuit_kind::general};
  EXPECT_EQ(run_instrument(fn, ev)["country/DE/circuits"], 1u);
  // FR is not measured: nothing is counted.
  ev.body = tor::entry_connection_event{fr_ip};
  EXPECT_TRUE(run_instrument(fn, ev).empty());
}

TEST(AsSplitTest, TopVsOther) {
  const auto geo = std::make_shared<const workload::geoip_db>(
      workload::geoip_db::make_synthetic());
  workload::geoip_db mutable_geo = workload::geoip_db::make_synthetic();
  const std::uint32_t ip = mutable_geo.allocate_ip(mutable_geo.index_of("US"));
  const std::uint32_t asn = geo->asn_of(ip);

  const auto top_fn = instrument_as_split(geo, {asn});
  const auto other_fn = instrument_as_split(geo, {asn + 999999});
  tor::event ev;
  ev.body = tor::entry_connection_event{ip};
  EXPECT_EQ(run_instrument(top_fn, ev)["as/top1000/connections"], 1u);
  EXPECT_EQ(run_instrument(other_fn, ev)["as/other/connections"], 1u);
}

TEST(HsdirInstrumentTest, FetchOutcomesAndAhmiaMembership) {
  std::vector<tor::onion_address> addrs{
      tor::derive_onion_address(as_bytes("a")),
      tor::derive_onion_address(as_bytes("b"))};
  rng r{1};
  // Index everything -> "public"; empty index -> "unknown".
  const auto all = std::make_shared<const workload::ahmia_index>(
      workload::ahmia_index::make(addrs, 1.0, r));
  const auto none = std::make_shared<const workload::ahmia_index>(
      workload::ahmia_index::make(addrs, 0.0, r));

  tor::event publish;
  publish.body = tor::hsdir_publish_event{addrs[0]};
  EXPECT_EQ(run_instrument(instrument_hsdir_descriptors(all), publish)["hsdir/publishes"],
            1u);

  tor::event ok;
  ok.body = tor::hsdir_fetch_event{addrs[0], tor::fetch_outcome::success};
  counter_map m = run_instrument(instrument_hsdir_descriptors(all), ok);
  EXPECT_EQ(m["hsdir/fetch/total"], 1u);
  EXPECT_EQ(m["hsdir/fetch/success"], 1u);
  EXPECT_EQ(m["hsdir/fetch/success/public"], 1u);
  m = run_instrument(instrument_hsdir_descriptors(none), ok);
  EXPECT_EQ(m["hsdir/fetch/success/unknown"], 1u);

  tor::event missing;
  missing.body = tor::hsdir_fetch_event{addrs[1], tor::fetch_outcome::not_found};
  m = run_instrument(instrument_hsdir_descriptors(all), missing);
  EXPECT_EQ(m["hsdir/fetch/failed"], 1u);
  EXPECT_EQ(m.count("hsdir/fetch/success"), 0u);
}

TEST(RendezvousInstrumentTest, OutcomesAndCells) {
  const auto fn = instrument_rendezvous();
  tor::event ok;
  ok.body = tor::rend_circuit_event{tor::rend_outcome::succeeded, 1500};
  counter_map m = run_instrument(fn, ok);
  EXPECT_EQ(m["rend/circuits"], 1u);
  EXPECT_EQ(m["rend/succeeded"], 1u);
  EXPECT_EQ(m["rend/cells"], 1500u);

  tor::event expired;
  expired.body = tor::rend_circuit_event{tor::rend_outcome::failed_expired, 0};
  m = run_instrument(fn, expired);
  EXPECT_EQ(m["rend/expired"], 1u);
  EXPECT_EQ(m.count("rend/cells"), 0u);

  tor::event closed;
  closed.body = tor::rend_circuit_event{tor::rend_outcome::failed_conn_closed, 0};
  EXPECT_EQ(run_instrument(fn, closed)["rend/conn-closed"], 1u);
}

// -- name registry (plan-file instruments) -----------------------------------

TEST(RegistryTest, EveryRegisteredInstrumentResolvesAndHasSpecs) {
  for (const auto& name : instrument_names()) {
    EXPECT_NO_THROW((void)instrument_by_name(name)) << name;
    const auto specs = default_specs_for(name);
    EXPECT_FALSE(specs.empty()) << name;
    std::vector<std::string> spec_names;
    for (const auto& spec : specs) {
      EXPECT_GT(spec.sensitivity, 0.0) << name << "/" << spec.name;
      spec_names.push_back(spec.name);
    }
    // The instrument declares exactly the counters its default specs name.
    EXPECT_EQ(instrument_by_name(name)->counters(), spec_names) << name;
  }
  EXPECT_THROW((void)instrument_by_name("nonexistent"), precondition_error);
  EXPECT_THROW((void)default_specs_for("nonexistent"), precondition_error);
}

/// The registry contract the distributed byte-identity gates depend on:
/// two independent resolutions of one name must classify an event batch
/// identically (same counters, same increments) — the canonical auxiliary
/// inputs (Alexa list, ahmia index, suffix list) rebuild deterministically.
TEST(RegistryTest, ParameterizedInstrumentsResolveDeterministically) {
  std::vector<tor::event> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(stream_event("host" + std::to_string(i) + ".com"));
    batch.push_back(stream_event("x.site" + std::to_string(i) + ".ru"));
  }
  for (int i = 0; i < 20; ++i) {
    const tor::onion_address addr = tor::derive_onion_address(
        as_bytes("tormet.service.key." + std::to_string(i)));
    tor::event fetch;
    fetch.body = tor::hsdir_fetch_event{addr, tor::fetch_outcome::success};
    batch.push_back(fetch);
  }
  for (const auto& name : instrument_names()) {
    const auto a = instrument_by_name(name);
    const auto b = instrument_by_name(name);
    const counter_map counts_a = run_instrument(a, batch);
    const counter_map counts_b = run_instrument(b, batch);
    EXPECT_EQ(counts_a, counts_b) << name;
  }
}

TEST(RegistryTest, TldHistogramCountsCanonicalTlds) {
  const auto fn = instrument_by_name("tld_histogram");
  EXPECT_EQ(run_instrument(fn, stream_event("a.b.com"))["tld/com"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("x.ru"))["tld/ru"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("foo.example"))["tld/other"], 1u);
  EXPECT_EQ(run_instrument(fn, stream_event("onionoo.torproject.org"))
                ["tld/torproject.org"],
            1u);
  // Every counter it can emit has a default spec.
  std::set<std::string> spec_names;
  for (const auto& s : default_specs_for("tld_histogram")) {
    spec_names.insert(s.name);
  }
  EXPECT_TRUE(spec_names.contains("tld/com"));
  EXPECT_TRUE(spec_names.contains("tld/other"));
  EXPECT_TRUE(spec_names.contains("tld/torproject.org"));
}

TEST(RegistryTest, DomainSetsBucketsCanonicalAlexaRanks) {
  const auto fn = instrument_by_name("domain_sets");
  // Rank-bucket membership over the canonical list: unknown domains land
  // in sites/other; torproject.org is separated.
  EXPECT_EQ(run_instrument(fn, stream_event("torproject.org"))
                ["sites/torproject.org"],
            1u);
  EXPECT_EQ(run_instrument(fn, stream_event("never-in-any-list.zz"))
                ["sites/other"],
            1u);
  // Default specs cover each emitted bucket.
  std::set<std::string> spec_names;
  for (const auto& s : default_specs_for("domain_sets")) {
    spec_names.insert(s.name);
  }
  EXPECT_TRUE(spec_names.contains("sites/torproject.org"));
  EXPECT_TRUE(spec_names.contains("sites/(0,10]"));
  EXPECT_TRUE(spec_names.contains("sites/other"));
}

TEST(RegistryTest, HsdirAhmiaClassifiesCanonicalServiceUniverse) {
  const auto fn = instrument_by_name("hsdir_ahmia");
  // The canonical index covers ~56.8 % of the synthetic service universe
  // (tor::network's deterministic per-index addresses); fetching the first
  // 200 services must classify a plausible public/unknown split.
  std::uint64_t public_hits = 0, unknown_hits = 0;
  for (int i = 0; i < 200; ++i) {
    const tor::onion_address addr = tor::derive_onion_address(
        as_bytes("tormet.service.key." + std::to_string(i)));
    tor::event fetch;
    fetch.body = tor::hsdir_fetch_event{addr, tor::fetch_outcome::success};
    const counter_map m = run_instrument(fn, fetch);
    public_hits += m.count("hsdir/fetch/success/public");
    unknown_hits += m.count("hsdir/fetch/success/unknown");
  }
  EXPECT_EQ(public_hits + unknown_hits, 200u);
  EXPECT_GT(public_hits, 70u);   // ~113 expected
  EXPECT_GT(unknown_hits, 40u);  // ~87 expected
}

// -- extractors --------------------------------------------------------------

TEST(ExtractorTest, ClientIp) {
  const auto fn = extract_client_ip();
  tor::event ev;
  ev.body = tor::entry_connection_event{12345};
  EXPECT_EQ(fn(ev), "ip:12345");
  ev.body = tor::entry_circuit_event{12345, tor::circuit_kind::general};
  EXPECT_EQ(fn(ev), std::nullopt);  // only connections identify clients
}

TEST(ExtractorTest, CountryAndAsn) {
  const auto geo = std::make_shared<const workload::geoip_db>(
      workload::geoip_db::make_synthetic());
  workload::geoip_db mutable_geo = workload::geoip_db::make_synthetic();
  const std::uint32_t ip = mutable_geo.allocate_ip(mutable_geo.index_of("RU"));
  tor::event ev;
  ev.body = tor::entry_connection_event{ip};
  EXPECT_EQ(extract_client_country(geo)(ev), "cc:RU");
  EXPECT_EQ(extract_client_asn(geo)(ev),
            "as:" + std::to_string(geo->asn_of(ip)));
}

TEST(ExtractorTest, PrimarySld) {
  const auto suffixes =
      std::make_shared<const workload::suffix_list>(workload::suffix_list::embedded());
  const auto alexa = std::make_shared<const workload::alexa_list>(
      workload::alexa_list::make_synthetic({.size = 20'000, .seed = 5}));

  const auto all = extract_primary_sld(suffixes, nullptr);
  EXPECT_EQ(all(stream_event("www.example.com")), "sld:example.com");
  EXPECT_EQ(all(stream_event("a.b.shop.co.uk")), "sld:shop.co.uk");
  EXPECT_EQ(all(stream_event("example.com", false)), std::nullopt);
  EXPECT_EQ(all(stream_event("noSuffixHost")), std::nullopt);

  const auto listed = extract_primary_sld(suffixes, alexa);
  EXPECT_EQ(listed(stream_event("www.google.com")), "sld:google.com");
  EXPECT_EQ(listed(stream_event("never-listed-domain.com")), std::nullopt);
}

TEST(ExtractorTest, OnionAddresses) {
  const tor::onion_address addr = tor::derive_onion_address(as_bytes("svc"));
  tor::event pub;
  pub.body = tor::hsdir_publish_event{addr};
  EXPECT_EQ(extract_published_address()(pub), "pub:" + addr.value);
  EXPECT_EQ(extract_fetched_address()(pub), std::nullopt);

  tor::event fetched;
  fetched.body = tor::hsdir_fetch_event{addr, tor::fetch_outcome::success};
  EXPECT_EQ(extract_fetched_address()(fetched), "fetch:" + addr.value);

  tor::event failed;
  failed.body = tor::hsdir_fetch_event{addr, tor::fetch_outcome::not_found};
  EXPECT_EQ(extract_fetched_address()(failed), std::nullopt);
}

}  // namespace
}  // namespace tormet::core
