// Workload-generator tests: suffix handling, Zipf shape, the synthetic
// Alexa list, GeoIP/AS database, ahmia index, population churn, and the
// browsing destination mixture.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "src/tor/event_codec.h"
#include "src/tor/network.h"
#include "src/util/check.h"
#include "src/workload/ahmia.h"
#include "src/workload/alexa.h"
#include "src/workload/browsing.h"
#include "src/workload/geoip.h"
#include "src/workload/onion_activity.h"
#include "src/workload/population.h"
#include "src/workload/scenario.h"
#include "src/workload/suffix_list.h"
#include "src/workload/trace_gen.h"
#include "src/workload/zipf.h"

namespace tormet::workload {
namespace {

TEST(SuffixListTest, SldExtraction) {
  const suffix_list sl = suffix_list::embedded();
  EXPECT_EQ(sl.sld_of("www.example.com"), "example.com");
  EXPECT_EQ(sl.sld_of("example.com"), "example.com");
  EXPECT_EQ(sl.sld_of("a.b.example.co.uk"), "example.co.uk");
  EXPECT_EQ(sl.sld_of("onionoo.torproject.org"), "torproject.org");
  EXPECT_EQ(sl.sld_of("com"), std::nullopt);             // no label above suffix
  EXPECT_EQ(sl.sld_of("abcdef.onion"), std::nullopt);    // .onion not public
  EXPECT_EQ(sl.sld_of("localhost"), std::nullopt);
}

TEST(SuffixListTest, PublicSuffixLongestMatch) {
  const suffix_list sl = suffix_list::embedded();
  EXPECT_EQ(sl.public_suffix_of("shop.example.co.uk"), "co.uk");
  EXPECT_EQ(sl.public_suffix_of("example.de"), "de");
  EXPECT_TRUE(sl.is_public_suffix("com"));
  EXPECT_FALSE(sl.is_public_suffix("example"));
}

TEST(SuffixListTest, TldExtraction) {
  EXPECT_EQ(suffix_list::tld_of("a.b.com"), "com");
  EXPECT_EQ(suffix_list::tld_of("x.ru"), "ru");
  EXPECT_EQ(suffix_list::tld_of("bare"), "bare");
  EXPECT_EQ(suffix_list::tld_of(""), std::nullopt);
}

TEST(ZipfTest, BoundsRespected) {
  rng r{1};
  const zipf_sampler z{1000, 1.2};
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = z.sample(r);
    ASSERT_GE(x, 1u);
    ASSERT_LE(x, 1000u);
  }
}

TEST(ZipfTest, ExponentOneGivesFlatDecades) {
  // s = 1 puts equal probability mass in each decade — the property behind
  // the paper's flat Fig 2 rank buckets.
  rng r{2};
  const zipf_sampler z{1'000'000, 1.0};
  std::map<int, int> decade_counts;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = z.sample(r);
    int decade = 0;
    for (std::uint64_t v = x; v >= 10; v /= 10) ++decade;
    ++decade_counts[decade];
  }
  // Six decades, ~n/6 each (within 12 %).
  for (int d = 0; d < 6; ++d) {
    EXPECT_NEAR(decade_counts[d], n / 6, n / 6 * 0.12) << "decade " << d;
  }
}

TEST(ZipfTest, HigherExponentConcentratesHead) {
  rng r{3};
  const zipf_sampler flat{10000, 0.7};
  const zipf_sampler steep{10000, 1.5};
  int flat_head = 0;
  int steep_head = 0;
  for (int i = 0; i < 20000; ++i) {
    if (flat.sample(r) <= 10) ++flat_head;
    if (steep.sample(r) <= 10) ++steep_head;
  }
  EXPECT_GT(steep_head, flat_head * 2);
}

class AlexaTest : public ::testing::Test {
 protected:
  static const alexa_list& list() {
    static const alexa_list l =
        alexa_list::make_synthetic({.size = 50'000, .seed = 7});
    return l;
  }
};

TEST_F(AlexaTest, FixedHead) {
  EXPECT_EQ(list().domain_at_rank(1), "google.com");
  EXPECT_EQ(list().domain_at_rank(7), "google.co.in");
  EXPECT_EQ(list().domain_at_rank(10), "amazon.com");
  EXPECT_EQ(list().domain_at_rank(342), "duckduckgo.com");
  EXPECT_EQ(list().domain_at_rank(10244), "torproject.org");
  EXPECT_EQ(list().rank_of("torproject.org"), 10244u);
  EXPECT_EQ(list().rank_of("not-a-site.zz"), std::nullopt);
}

TEST_F(AlexaTest, SiblingFamilies) {
  // google is the largest family (212 entries per the paper); reddit and qq
  // the smallest (3 each).
  EXPECT_EQ(list().sibling_set("google").size(), 212u);
  EXPECT_EQ(list().sibling_set("reddit").size(), 3u);
  EXPECT_EQ(list().sibling_set("qq").size(), 3u);
  EXPECT_EQ(list().sibling_set("amazon").size(), 52u);
  EXPECT_EQ(list().sibling_set("duckduckgo").size(), 1u);
  EXPECT_EQ(list().sibling_set("torproject").size(), 1u);
}

TEST_F(AlexaTest, AllRanksPopulatedAndUnique) {
  std::unordered_set<std::string> seen;
  for (std::uint32_t rank = 1; rank <= list().size(); ++rank) {
    const std::string& d = list().domain_at_rank(rank);
    ASSERT_FALSE(d.empty()) << rank;
    ASSERT_TRUE(seen.insert(d).second) << "duplicate " << d;
  }
}

TEST_F(AlexaTest, CategoriesShapedLikeAlexa) {
  const auto& cats = list().categories();
  EXPECT_GE(cats.size(), 10u);
  bool amazon_in_shopping = false;
  for (const auto& [name, members] : cats) {
    EXPECT_EQ(members.size(), 50u) << name;
    for (const auto& m : members) {
      EXPECT_NE(m, "torproject.org");  // paper: torproject in no category
      if (name == "shopping" && m == "amazon.com") amazon_in_shopping = true;
    }
  }
  EXPECT_TRUE(amazon_in_shopping);
}

TEST(AlexaMatchTest, HostnameMatching) {
  EXPECT_TRUE(hostname_matches_domain("amazon.com", "amazon.com"));
  EXPECT_TRUE(hostname_matches_domain("www.amazon.com", "amazon.com"));
  EXPECT_TRUE(hostname_matches_domain("a.b.amazon.com", "amazon.com"));
  EXPECT_FALSE(hostname_matches_domain("notamazon.com", "amazon.com"));
  EXPECT_FALSE(hostname_matches_domain("amazon.com.evil.net", "amazon.com"));
  EXPECT_FALSE(hostname_matches_domain("amazon.co", "amazon.com"));
}

TEST(GeoipTest, CountryAndAsLookups) {
  geoip_db db = geoip_db::make_synthetic();
  EXPECT_EQ(db.num_countries(), 250u);
  EXPECT_NEAR(db.total_ases(), 59'597, 2000);

  const country_index us = db.index_of("US");
  const std::uint32_t ip = db.allocate_ip(us);
  EXPECT_EQ(db.country_of(ip), us);
  const std::uint32_t asn = db.asn_of(ip);
  EXPECT_GE(asn, 1u);
  EXPECT_LE(asn, db.total_ases());
  EXPECT_THROW((void)db.index_of("XX"), tormet::precondition_error);
}

TEST(GeoipTest, AllocatedIpsAreDistinctAndSpreadOverAses) {
  geoip_db db = geoip_db::make_synthetic();
  const country_index de = db.index_of("DE");
  std::set<std::uint32_t> ips;
  std::set<std::uint32_t> ases;
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t ip = db.allocate_ip(de);
    EXPECT_TRUE(ips.insert(ip).second);
    ases.insert(db.asn_of(ip));
    EXPECT_EQ(db.country_of(ip), de);
  }
  // DE has hundreds of ASes; allocation should touch many of them.
  EXPECT_GT(ases.size(), 100u);
}

TEST(GeoipTest, SampleCountryFollowsShares) {
  geoip_db db = geoip_db::make_synthetic();
  rng r{8};
  std::map<country_index, int> counts;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[db.sample_country(r)];
  const country_index us = db.index_of("US");
  EXPECT_NEAR(static_cast<double>(counts[us]) / n,
              db.countries()[us].client_share, 0.01);
  // The long tail exists: many distinct countries sampled.
  EXPECT_GT(counts.size(), 100u);
}

TEST(AhmiaTest, IndexCoversRequestedFraction) {
  std::vector<tor::onion_address> addrs;
  for (int i = 0; i < 5000; ++i) {
    addrs.push_back(
        tor::derive_onion_address(as_bytes("svc" + std::to_string(i))));
  }
  rng r{9};
  const ahmia_index index = ahmia_index::make(addrs, 0.57, r);
  EXPECT_NEAR(static_cast<double>(index.size()) / 5000.0, 0.57, 0.03);
}

class PopulationTest : public ::testing::Test {
 protected:
  PopulationTest() {
    tor::consensus_params cparams;
    cparams.num_relays = 400;
    cparams.seed = 31;
    net_ = std::make_unique<tor::network>(
        tor::make_synthetic_consensus(cparams), 77);
    geo_ = std::make_unique<geoip_db>(geoip_db::make_synthetic());
  }

  static population_params small_params() {
    population_params p;
    p.network_scale = 1.0;
    p.selective_clients = 500;
    p.promiscuous_clients = 5;
    p.daily_churn = 0.4;
    p.seed = 3;
    return p;
  }

  std::unique_ptr<tor::network> net_;
  std::unique_ptr<geoip_db> geo_;
};

TEST_F(PopulationTest, InitialPopulationComposition) {
  population pop{*net_, *geo_, small_params()};
  EXPECT_EQ(pop.active().size(), 505u);
  EXPECT_EQ(pop.unique_ips_to_date(), 505u);
  std::size_t promiscuous = 0;
  for (const auto c : pop.active()) {
    if (pop.class_of(c) == client_class::promiscuous) ++promiscuous;
  }
  EXPECT_EQ(promiscuous, 5u);
  EXPECT_EQ(pop.active_of(client_class::promiscuous).size(), 5u);
}

TEST_F(PopulationTest, ChurnGrowsUniqueIps) {
  population pop{*net_, *geo_, small_params()};
  const std::size_t day1 = pop.unique_ips_to_date();
  pop.advance_to_day(2);  // two churn steps (days 1 and 2)
  const std::size_t day3 = pop.unique_ips_to_date();
  // Expected growth: ~2 * churn * selective = 2*0.4*500 = 400 new IPs.
  EXPECT_GT(day3, day1 + 250);
  EXPECT_LT(day3, day1 + 550);
  // Active set size is unchanged; only identities churn.
  EXPECT_EQ(pop.active().size(), 505u);
}

TEST_F(PopulationTest, UaeClientsGetBlockedProfile) {
  population_params p = small_params();
  p.selective_clients = 3000;  // enough for AE representation
  population pop{*net_, *geo_, p};
  const auto uae = pop.active_of(client_class::uae_blocked);
  EXPECT_GT(uae.size(), 10u);
  for (const auto c : uae) {
    EXPECT_EQ(geo_->countries()[net_->profile_of(c).country].code, "AE");
  }
}

TEST_F(PopulationTest, EntryDayGeneratesTraffic) {
  population pop{*net_, *geo_, small_params()};
  pop.run_entry_day(sim_time{0});
  const tor::ground_truth& t = net_->truth();
  EXPECT_GT(t.entry_connections, 500u);  // promiscuous connect to all guards
  EXPECT_GT(t.entry_circuits, 1000u);
  EXPECT_GT(t.entry_bytes, 0u);
}

TEST(BrowsingTest, DestinationMixtureShape) {
  tor::consensus_params cparams;
  cparams.num_relays = 300;
  tor::network net{tor::make_synthetic_consensus(cparams), 5};
  const alexa_list alexa = alexa_list::make_synthetic({.size = 50'000, .seed = 7});
  browsing_params bp;
  bp.seed = 10;
  browsing_driver driver{net, alexa, bp};

  int torproject = 0;
  int amazon = 0;
  int in_alexa = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::string host = driver.sample_destination();
    if (hostname_matches_domain(host, "torproject.org")) ++torproject;
    if (host.find("amazon.") != std::string::npos) ++amazon;
    std::string_view rest = host;
    for (;;) {
      if (alexa.contains(rest)) {
        ++in_alexa;
        break;
      }
      const std::size_t dot = rest.find('.');
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot + 1);
    }
  }
  EXPECT_NEAR(static_cast<double>(torproject) / n, 0.401, 0.02);
  EXPECT_NEAR(static_cast<double>(amazon) / n, 0.097, 0.02);
  // ~80 % of destinations are Alexa-listed (paper Fig 2 conclusion:
  // "other" = 21.7 %).
  EXPECT_NEAR(static_cast<double>(in_alexa) / n, 0.783, 0.04);
}

TEST(BrowsingTest, VisitProducesExpectedStreamShape) {
  tor::consensus_params cparams;
  cparams.num_relays = 300;
  tor::network net{tor::make_synthetic_consensus(cparams), 6};
  const alexa_list alexa = alexa_list::make_synthetic({.size = 50'000, .seed = 7});
  browsing_params bp;
  bp.seed = 11;
  browsing_driver driver{net, alexa, bp};

  tor::client_profile profile;
  profile.ip = 1;
  const tor::client_id c = net.add_client(profile);
  for (int i = 0; i < 300; ++i) driver.visit_site(c, sim_time{0});

  const tor::ground_truth& t = net.truth();
  EXPECT_EQ(t.exit_streams_initial, 300u);
  // subsequent/initial ratio ~ 19 => total/initial ~ 20.
  const double ratio = static_cast<double>(t.exit_streams_total) / 300.0;
  EXPECT_NEAR(ratio, 20.0, 1.5);
  // Initial streams are overwhelmingly hostname+web.
  EXPECT_GT(t.initial_hostname_web, 290u);
}

TEST(OnionActivityTest, DayReproducesFailureShape) {
  tor::consensus_params cparams;
  cparams.num_relays = 400;
  cparams.seed = 41;
  tor::network net{tor::make_synthetic_consensus(cparams), 7};
  onion_params op;
  op.network_scale = 1e-3;
  op.seed = 12;
  onion_driver driver{net, op};

  tor::client_profile profile;
  profile.ip = 2;
  const tor::client_id c = net.add_client(profile);
  const std::vector<tor::client_id> clients{c};
  driver.run_day(clients, clients, sim_time{0});

  const tor::ground_truth& t = net.truth();
  ASSERT_GT(t.descriptor_fetches, 100'000u);
  const double fail_rate =
      static_cast<double>(t.descriptor_fetch_not_found +
                          t.descriptor_fetch_malformed) /
      static_cast<double>(t.descriptor_fetches);
  EXPECT_NEAR(fail_rate, 0.909, 0.02);

  ASSERT_GT(t.rend_circuits, 100'000u);
  const double success_rate = static_cast<double>(t.rend_succeeded) /
                              static_cast<double>(t.rend_circuits);
  EXPECT_NEAR(success_rate, 0.0808, 0.015);
  // The paper's Table 8 percentages sum to 97.35 % (wide CIs); the model
  // normalizes, putting the residual mass on the dominant expired class.
  const double expired_rate = static_cast<double>(t.rend_expired) /
                              static_cast<double>(t.rend_circuits);
  EXPECT_NEAR(expired_rate, 0.875, 0.02);

  // Services got published and some subset was fetched.
  EXPECT_GT(net.service_count(), 8u);
  EXPECT_GT(driver.unique_fetched(), 0u);
  EXPECT_LE(driver.unique_fetched(), net.service_count());
}

TEST(TraceGenTest, GenerationIsAPureFunctionOfParams) {
  trace_gen_params params;
  params.model = "mixed";
  params.dcs = 3;
  params.scale = 2e-5;
  params.seed = 12;
  const auto a = generate_trace_events(params);
  const auto b = generate_trace_events(params);
  ASSERT_EQ(a.size(), 3u);
  std::size_t total = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].size(), b[k].size());
    total += a[k].size();
    for (std::size_t i = 0; i < a[k].size(); ++i) {
      EXPECT_EQ(a[k][i].observer, b[k][i].observer);
      EXPECT_EQ(a[k][i].at.seconds, b[k][i].at.seconds);
      EXPECT_EQ(a[k][i].body.index(), b[k][i].body.index());
    }
  }
  EXPECT_GT(total, 0u);

  params.seed = 13;
  const auto c = generate_trace_events(params);
  std::size_t total_c = 0;
  for (const auto& dc : c) total_c += dc.size();
  EXPECT_NE(total, total_c);  // different seed, different workload volume
}

TEST(TraceGenTest, EveryModelProducesTimeOrderedPartitionedEvents) {
  for (const std::string& model : trace_models()) {
    trace_gen_params params;
    params.model = model;
    params.dcs = 4;
    params.scale = 1e-5;
    params.events = 200;
    const auto per_dc = generate_trace_events(params);
    ASSERT_EQ(per_dc.size(), 4u) << model;
    std::size_t total = 0;
    for (const auto& events : per_dc) {
      total += events.size();
      for (std::size_t i = 1; i < events.size(); ++i) {
        ASSERT_GE(events[i].at.seconds, events[i - 1].at.seconds)
            << model << ": events must be non-decreasing in time";
      }
    }
    EXPECT_GT(total, 0u) << model;
  }
  EXPECT_THROW((void)generate_trace_events({.model = "bogus"}),
               precondition_error);
}

TEST(TraceGenTest, MultiDayTracesSpanDailyWindows) {
  for (const std::string_view model : {"zipf", "population", "mixed"}) {
    trace_gen_params params;
    params.model = model;
    params.dcs = 3;
    params.scale = 5e-5;
    params.events = 300;
    params.days = 3;
    params.seed = 21;
    const auto per_dc = generate_trace_events(params);
    // Every simulated day produces events, events stay time-ordered, and
    // nothing lands past the last day's window.
    std::vector<std::size_t> per_day(3, 0);
    for (const auto& events : per_dc) {
      for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_GE(events[i].at.seconds, 0) << model;
        ASSERT_LT(events[i].at.seconds, 3 * k_seconds_per_day) << model;
        if (i > 0) {
          ASSERT_GE(events[i].at.seconds, events[i - 1].at.seconds) << model;
        }
        ++per_day[static_cast<std::size_t>(events[i].at.seconds /
                                           k_seconds_per_day)];
      }
    }
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_GT(per_day[d], 0u) << model << " day " << d;
    }
  }
}

TEST(TraceGenTest, SingleDayIsTheDaysEqualsOneSpecialCase) {
  trace_gen_params implicit;
  implicit.model = "zipf";
  implicit.dcs = 2;
  implicit.events = 400;
  implicit.seed = 33;
  trace_gen_params explicit_days = implicit;
  explicit_days.days = 1;
  const auto a = generate_trace_events(implicit);
  const auto b = generate_trace_events(explicit_days);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].size(), b[k].size());
    for (std::size_t i = 0; i < a[k].size(); ++i) {
      EXPECT_EQ(a[k][i].at.seconds, b[k][i].at.seconds);
      EXPECT_EQ(a[k][i].body.index(), b[k][i].body.index());
    }
  }
}

/// Each event's tor::append_event_record bytes, one entry per event.
[[nodiscard]] std::vector<byte_buffer> record_bytes(
    const std::vector<tor::event>& events) {
  std::vector<byte_buffer> out;
  for (const tor::event& ev : events) {
    out.emplace_back();
    tor::append_event_record(out.back(), ev);
  }
  return out;
}

/// A DC process renders only its own slice: generating with a DC index
/// must give exactly that slice of the full generation, record for record,
/// and leave every other slice empty.
void expect_slices_match_full(
    const std::vector<std::vector<tor::event>>& full, std::size_t k,
    const std::vector<std::vector<tor::event>>& only, const std::string& what) {
  ASSERT_EQ(only.size(), full.size()) << what;
  for (std::size_t j = 0; j < full.size(); ++j) {
    if (j != k) {
      EXPECT_TRUE(only[j].empty()) << what << ": slice " << j;
      continue;
    }
    EXPECT_FALSE(full[k].empty()) << what << ": slice " << k;
    EXPECT_EQ(record_bytes(only[k]), record_bytes(full[k]))
        << what << ": slice " << k;
  }
}

TEST(TraceGenTest, OneDcSliceEqualsThatSliceOfTheFullGeneration) {
  for (const std::string& model : trace_models()) {
    trace_gen_params params;
    params.model = model;
    params.dcs = 3;
    params.scale = 2e-5;
    params.events = 300;
    params.days = 2;
    params.seed = 17;
    const auto full = generate_trace_events(params);
    for (std::size_t k = 0; k < params.dcs; ++k) {
      expect_slices_match_full(full, k, generate_trace_events(params, k),
                               model);
    }
  }
  EXPECT_THROW((void)generate_trace_events({.dcs = 2}, 2), precondition_error);
}

TEST(ScenarioGenTest, OneDcSliceEqualsThatSliceOfTheFullGeneration) {
  for (const std::string& name : scenario_names()) {
    scenario_params params;
    params.name = name;
    params.dcs = 3;
    params.scale = 0.25;
    params.events = 200;
    params.days = 2;
    params.seed = 17;
    const auto full = generate_scenario_events(params);
    for (std::size_t k = 0; k < params.dcs; ++k) {
      expect_slices_match_full(full, k, generate_scenario_events(params, k),
                               name);
    }
  }
}

/// Statistical acceptance for the Table 5 driver: multi-day population
/// traces must reproduce the configured multi-day/1-day unique-client
/// ratio. With daily churn c, unique(N days)/unique(1 day) ≈ 1 + (N-1)·c
/// (the relation the paper's 2.15x 4-day turnover follows); the generated
/// traces' *observed* unique IPs at the measured relays must match within
/// sampling tolerance, across seeds.
TEST(TraceGenTest, MultiDayChurnReproducesUniqueClientRatio) {
  constexpr int k_days = 3;
  const double churn = population_params{}.daily_churn;  // 0.382
  const double expected_ratio = 1.0 + (k_days - 1) * churn;
  for (const std::uint64_t seed : {5ull, 6ull}) {
    trace_gen_params params;
    params.model = "population";
    params.dcs = 4;
    params.scale = 5e-4;  // ~4400 selective clients (~220 observed/day)
    params.days = k_days;
    params.seed = seed;
    const auto per_dc = generate_trace_events(params);

    std::vector<std::set<std::uint32_t>> daily(k_days);
    std::set<std::uint32_t> total;
    for (const auto& events : per_dc) {
      for (const auto& ev : events) {
        const auto* conn = std::get_if<tor::entry_connection_event>(&ev.body);
        if (conn == nullptr) continue;
        const auto day =
            static_cast<std::size_t>(ev.at.seconds / k_seconds_per_day);
        daily.at(day).insert(conn->client_ip);
        total.insert(conn->client_ip);
      }
    }
    ASSERT_GT(daily[0].size(), 150u) << "seed " << seed;
    const double ratio = static_cast<double>(total.size()) /
                         static_cast<double>(daily[0].size());
    EXPECT_NEAR(ratio, expected_ratio, 0.25)
        << "seed " << seed << ": " << total.size() << " total unique vs "
        << daily[0].size() << " day-0 unique";
    // And each later day's unique count stays in the same ballpark as day
    // 0's (the active population size is stable; only identities churn).
    for (int d = 1; d < k_days; ++d) {
      EXPECT_NEAR(static_cast<double>(daily[d].size()),
                  static_cast<double>(daily[0].size()),
                  0.2 * static_cast<double>(daily[0].size()))
          << "seed " << seed << " day " << d;
    }
  }
}

// -- scenario golden digests -------------------------------------------------

namespace {

[[nodiscard]] std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Renders `params` into a fresh temp dir and returns every produced file
/// as {name -> bytes} — the scenario's golden digest.
[[nodiscard]] std::map<std::string, std::string> render_digest(
    const scenario_params& params) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tormet-scn-" + params.name + "-" + std::to_string(params.seed) + "-" +
       std::to_string(::getpid()) + "-" +
       std::to_string(static_cast<unsigned>(params.scale * 1'000)));
  std::filesystem::create_directories(dir);
  const std::vector<std::size_t> counts =
      write_scenario_dir(params, dir.string());
  EXPECT_EQ(counts.size(), params.dcs);
  std::map<std::string, std::string> digest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    digest[entry.path().filename().string()] = slurp(entry.path());
  }
  std::filesystem::remove_all(dir);
  return digest;
}

}  // namespace

TEST(ScenarioGenTest, GenerationIsAPureFunctionOfParams) {
  for (const auto& name : scenario_names()) {
    scenario_params params;
    params.name = name;
    params.dcs = 3;
    params.scale = 0.25;
    params.events = 200;
    params.seed = 4;
    params.days = 2;
    const auto a = generate_scenario_events(params);
    const auto b = generate_scenario_events(params);
    ASSERT_EQ(a.size(), 3u) << name;
    std::size_t total = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k].size(), b[k].size()) << name;
      total += a[k].size();
      for (std::size_t i = 0; i < a[k].size(); ++i) {
        EXPECT_EQ(a[k][i].at.seconds, b[k][i].at.seconds);
        EXPECT_EQ(a[k][i].body.index(), b[k][i].body.index());
      }
      // Every slice is stably time-sorted, as workload_cursor's zero-copy
      // window fast path requires.
      for (std::size_t i = 1; i < a[k].size(); ++i) {
        EXPECT_LE(a[k][i - 1].at.seconds, a[k][i].at.seconds) << name;
      }
    }
    EXPECT_GT(total, 0u) << name;

    scenario_params other = params;
    other.seed = 5;
    const auto c = generate_scenario_events(other);
    std::size_t total_c = 0;
    for (const auto& dc : c) total_c += dc.size();
    EXPECT_NE(total, total_c) << name;  // different seed, different volume
  }
}

TEST(ScenarioGenTest, ScenarioDirsRenderByteIdenticalAcrossRuns) {
  // Golden-digest determinism: every scenario x {seed, scale} renders the
  // exact same bytes — traces AND the ground_truth.cfg sidecar — on every
  // run, anywhere. This is what makes a scenario name + params citable in
  // a paper artifact.
  for (const auto& name : scenario_names()) {
    for (const std::uint64_t seed : {2u, 9u}) {
      for (const double scale : {0.125, 0.375}) {
        scenario_params params;
        params.name = name;
        params.dcs = 2;
        params.scale = scale;
        params.events = 150;
        params.seed = seed;
        params.days = 2;
        const auto first = render_digest(params);
        const auto second = render_digest(params);
        ASSERT_EQ(first.size(), 3u) << name;  // dc-0, dc-1, ground_truth.cfg
        ASSERT_TRUE(first.count("ground_truth.cfg")) << name;
        EXPECT_EQ(first, second)
            << name << " seed " << seed << " scale " << scale
            << ": renders diverged across two runs";
      }
    }
  }
}

TEST(ScenarioGenTest, UnknownScenarioIsRejected) {
  EXPECT_FALSE(is_known_scenario("flashcrowd"));
  scenario_params params;
  params.name = "no_such_scenario";
  EXPECT_THROW(generate_scenario_events(params), precondition_error);
}

}  // namespace
}  // namespace tormet::workload
