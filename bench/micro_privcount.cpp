// google-benchmark microbenchmarks for measurement-path hot spots: event
// ingestion through PrivCount instruments (plain counters, domain-set
// matching against a 1M-entry index) and PSC oblivious inserts.
//
// `micro_privcount --speedup-json [bins] [workers]` skips google-benchmark
// and times the serial per-bin paths against the batch-engine paths for the
// two PSC bulk stages the tally pipeline spends its time in — oblivious-
// table initialization and the final-vector tally decode (decode stripped
// ciphertexts + count non-identity bins) — emitting one JSON object per
// stage. `--tally-sweep-json [workers]` sweeps the tally decode over
// 2^14..2^17 bins.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench/speedup_common.h"
#include "src/core/instruments.h"
#include "src/crypto/batch_engine.h"
#include "src/crypto/secure_rng.h"
#include "src/psc/oblivious_set.h"
#include "src/tor/events.h"
#include "src/util/thread_pool.h"
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
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{9};
  const auto kp = scheme.generate_keypair(rng);
  const std::size_t bins = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    psc::oblivious_set set{scheme, kp.pub, bins, rng};
    benchmark::DoNotOptimize(set.slots().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_psc_table_init_toy)->Arg(1 << 12)->Arg(1 << 16);

void bm_psc_insert_toy(benchmark::State& state) {
  const auto group = crypto::make_toy_group();
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{9};
  const auto kp = scheme.generate_keypair(rng);
  psc::oblivious_set set{scheme, kp.pub, 1 << 14, rng};
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

// ---------------------------------------------------------------------------
// --speedup-json: serial vs batched+threaded PSC table initialization (the
// DC-side bulk path: every bin is an encryption of zero), as one JSON line.
// ---------------------------------------------------------------------------

/// Serial vs batched final-vector tally decode at `bins` bins: the TS's
/// last step, decoding the stripped ciphertext vector off the wire and
/// counting non-identity plaintexts. The serial reference is the pre-engine
/// per-bin loop (full decode + is_identity); the batch path parses only the
/// plaintext components through the group arena decoder, sharded.
void run_tally_decode_json(const crypto::batch_engine& engine,
                           std::size_t bins, std::size_t workers,
                           crypto::secure_rng& rng) {
  const crypto::elgamal& scheme = engine.scheme();
  const auto kp = scheme.generate_keypair(rng);
  // A realistic stripped final vector: ~1/3 occupied bins.
  std::vector<std::uint8_t> bits(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    bits[i] = static_cast<std::uint8_t>(i % 3 == 0);
  }
  const std::vector<crypto::elgamal_ciphertext> cts = engine.encrypt_bits_batch(
      kp.pub, bits, crypto::batch_engine::derive_seed(rng));
  const std::vector<crypto::elgamal_ciphertext> stripped =
      engine.strip_share_batch(cts, kp.secret);
  const std::vector<byte_buffer> wire = engine.encode_batch(stripped);

  const auto measure = [&](const auto& fn) {
    return bench::measure_items_per_sec(bins, fn);
  };
  std::uint64_t serial_count = 0;
  const double serial = measure([&] {
    std::uint64_t count = 0;
    for (const auto& enc : wire) {
      const crypto::elgamal_ciphertext ct = scheme.decode(enc);
      if (!scheme.grp().is_identity(ct.b)) ++count;
    }
    serial_count = count;
    benchmark::DoNotOptimize(count);
  });
  std::uint64_t batched_count = 0;
  const double batched = measure([&] {
    batched_count = engine.tally_decode_count(wire);
    benchmark::DoNotOptimize(batched_count);
  });
  if (serial_count != batched_count) {
    std::fprintf(stderr, "tally decode mismatch: serial %llu batched %llu\n",
                 static_cast<unsigned long long>(serial_count),
                 static_cast<unsigned long long>(batched_count));
    std::exit(1);
  }

  std::printf(
      "{\"bench\":\"micro_privcount.tally_decode_speedup\",\"backend\":\"%s\","
      "\"bins\":%zu,\"workers\":%zu,"
      "\"serial_bins_per_sec\":%.0f,\"batched_bins_per_sec\":%.0f,"
      "\"speedup\":%.2f}\n",
      scheme.grp().name().c_str(), bins, workers, serial, batched,
      batched / serial);
}

int run_speedup_json(std::size_t bins, std::size_t workers) {
  const auto group = crypto::make_toy_group();
  const crypto::elgamal scheme{group};
  const auto pool = std::make_shared<util::thread_pool>(workers);
  const crypto::batch_engine engine{group, pool};
  crypto::deterministic_rng rng{2025};
  const auto kp = scheme.generate_keypair(rng);

  const auto measure = [&](const auto& fn) {
    return bench::measure_items_per_sec(bins, fn);
  };

  // Serial reference: the pre-batch per-bin loop.
  const double serial_init = measure([&] {
    std::vector<crypto::elgamal_ciphertext> slots;
    slots.reserve(bins);
    for (std::size_t i = 0; i < bins; ++i) {
      slots.push_back(scheme.encrypt_zero(kp.pub, rng));
    }
    benchmark::DoNotOptimize(slots);
  });
  const double batched_init = measure([&] {
    psc::oblivious_set set{engine, kp.pub, bins, rng};
    benchmark::DoNotOptimize(set.slots().data());
  });

  std::printf(
      "{\"bench\":\"micro_privcount.table_init_speedup\",\"backend\":\"%s\","
      "\"bins\":%zu,\"workers\":%zu,"
      "\"serial_bins_per_sec\":%.0f,\"batched_bins_per_sec\":%.0f,"
      "\"speedup\":%.2f}\n",
      group->name().c_str(), bins, workers, serial_init, batched_init,
      batched_init / serial_init);

  run_tally_decode_json(engine, bins, workers, rng);
  return 0;
}

int run_tally_sweep_json(std::size_t workers) {
  const auto group = crypto::make_toy_group();
  const auto pool = std::make_shared<util::thread_pool>(workers);
  const crypto::batch_engine engine{group, pool};
  crypto::deterministic_rng rng{2026};
  for (const std::size_t bins :
       {std::size_t{1} << 14, std::size_t{1} << 15, std::size_t{1} << 16,
        std::size_t{1} << 17}) {
    run_tally_decode_json(engine, bins, workers, rng);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedup-json") == 0) {
      return run_speedup_json(bench::positive_arg_or(argc, argv, i + 1, 16384),
                              bench::positive_arg_or(argc, argv, i + 2, 4));
    }
    if (std::strcmp(argv[i], "--tally-sweep-json") == 0) {
      return run_tally_sweep_json(bench::positive_arg_or(argc, argv, i + 1, 4));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
