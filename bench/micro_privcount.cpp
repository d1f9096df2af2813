// google-benchmark microbenchmarks for measurement-path hot spots: event
// ingestion through PrivCount instruments (plain counters, domain-set
// matching against a 1M-entry index) and PSC oblivious inserts.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "src/core/instruments.h"
#include "src/crypto/secure_rng.h"
#include "src/psc/oblivious_set.h"
#include "src/tor/events.h"
#include "src/workload/alexa.h"

namespace {

using namespace tormet;

tor::event make_stream_event(const std::string& host) {
  tor::event ev;
  ev.observer = 0;
  ev.body = tor::exit_stream_event{tor::address_kind::hostname, true, 443, host};
  return ev;
}

/// Runs `ins` over `evs` each iteration, into a slab with one slot per
/// declared counter (the DC's single-shard ingest path).
void run_instrument(benchmark::State& state,
                    const privcount::data_collector::instrument& ins,
                    const std::vector<tor::event>& evs) {
  std::vector<std::size_t> slots(ins->counters().size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::vector<std::uint64_t> slab(slots.size(), 0);
  for (auto _ : state) {
    ins->ingest(evs.data(), evs.size(), slots.data(), slab.data());
    benchmark::DoNotOptimize(slab.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(evs.size()));
}

void bm_stream_taxonomy_instrument(benchmark::State& state) {
  run_instrument(state, core::instrument_stream_taxonomy(),
                 {make_stream_event("www.example.com")});
}
BENCHMARK(bm_stream_taxonomy_instrument);

void bm_domain_set_matching(benchmark::State& state) {
  // Rank-set matching against a list of state.range(0) domains.
  const auto alexa = workload::alexa_list::make_synthetic(
      {.size = static_cast<std::size_t>(state.range(0)), .seed = 3});
  std::vector<core::domain_set> sets;
  core::domain_set set;
  set.name = "all";
  set.domains.reserve(alexa.size());
  for (std::uint32_t rank = 1; rank <= alexa.size(); ++rank) {
    set.domains.push_back(alexa.domain_at_rank(rank));
  }
  sets.push_back(std::move(set));
  run_instrument(state, core::instrument_domain_sets("rank", std::move(sets)),
                 {make_stream_event("www.amazon.com"),
                  make_stream_event("tail1234567.com")});
}
BENCHMARK(bm_domain_set_matching)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kNanosecond);

void bm_psc_table_init_toy(benchmark::State& state) {
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  crypto::deterministic_rng rng{9};
  const auto kp = scheme.generate_keypair(rng);
  const std::size_t bins = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    psc::oblivious_set set{engine, kp.pub, bins, rng};
    benchmark::DoNotOptimize(set.slots().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_psc_table_init_toy)->Arg(1 << 12)->Arg(1 << 16);

void bm_psc_insert_toy(benchmark::State& state) {
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  crypto::deterministic_rng rng{9};
  const auto kp = scheme.generate_keypair(rng);
  psc::oblivious_set set{engine, kp.pub, 1 << 14, rng};
  std::uint64_t i = 0;
  for (auto _ : state) {
    set.insert(as_bytes("ip:" + std::to_string(i++)), rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_psc_insert_toy);

void bm_country_instrument(benchmark::State& state) {
  const auto geo = std::make_shared<const workload::geoip_db>(
      workload::geoip_db::make_synthetic());
  tor::event ev;
  ev.body = tor::entry_connection_event{42};  // country 0 = US block
  run_instrument(state,
                 core::instrument_country_usage(
                     geo, {"US", "RU", "DE", "UA", "FR", "AE"}),
                 {ev});
}
BENCHMARK(bm_country_instrument);

}  // namespace

BENCHMARK_MAIN();
