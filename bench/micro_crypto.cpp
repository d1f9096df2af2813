// google-benchmark microbenchmarks for the crypto substrate: hashing,
// deterministic DRBG, group operations and ElGamal for both backends,
// additive blinding, and the wire codec.
#include <benchmark/benchmark.h>

#include "src/crypto/elgamal.h"
#include "src/crypto/hmac.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/secure_rng.h"
#include "src/crypto/sha256.h"
#include "src/net/wire.h"

namespace {

using namespace tormet;

void bm_sha256(benchmark::State& state) {
  const byte_buffer data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_sha256)->Arg(64)->Arg(1024)->Arg(16384);

void bm_hmac(benchmark::State& state) {
  const byte_buffer key(32, 0x11);
  const byte_buffer data(256, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(bm_hmac);

void bm_drbg_fill(benchmark::State& state) {
  crypto::deterministic_rng rng{1};
  byte_buffer out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_drbg_fill)->Arg(32)->Arg(4096);

crypto::group_backend backend_of(const benchmark::State& state) {
  return state.range(0) == 0 ? crypto::group_backend::toy
                             : crypto::group_backend::p256;
}

void bm_elgamal_encrypt(benchmark::State& state) {
  const auto group = crypto::make_group(backend_of(state));
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{2};
  const auto kp = scheme.generate_keypair(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.encrypt_one(kp.pub, rng));
  }
}
BENCHMARK(bm_elgamal_encrypt)->Arg(0)->Arg(1);

void bm_elgamal_rerandomize(benchmark::State& state) {
  const auto group = crypto::make_group(backend_of(state));
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{3};
  const auto kp = scheme.generate_keypair(rng);
  const auto ct = scheme.encrypt_one(kp.pub, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.rerandomize(kp.pub, ct, rng));
  }
}
BENCHMARK(bm_elgamal_rerandomize)->Arg(0)->Arg(1);

void bm_elgamal_strip_share(benchmark::State& state) {
  const auto group = crypto::make_group(backend_of(state));
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{4};
  const auto kp = scheme.generate_keypair(rng);
  const auto ct = scheme.encrypt_one(kp.pub, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.strip_share(ct, kp.secret));
  }
}
BENCHMARK(bm_elgamal_strip_share)->Arg(0)->Arg(1);

void bm_elgamal_rerandomize_batch(benchmark::State& state) {
  const auto group = crypto::make_group(backend_of(state));
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{3};
  const auto kp = scheme.generate_keypair(rng);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto cts = scheme.encrypt_zero_batch(kp.pub, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.rerandomize_batch(kp.pub, cts, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(bm_elgamal_rerandomize_batch)
    ->Args({0, 1024})->Args({0, 8192})->Args({1, 256});

void bm_elgamal_strip_share_batch(benchmark::State& state) {
  const auto group = crypto::make_group(backend_of(state));
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{4};
  const auto kp = scheme.generate_keypair(rng);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto cts = scheme.encrypt_zero_batch(kp.pub, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.strip_share_batch(cts, kp.secret));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(bm_elgamal_strip_share_batch)
    ->Args({0, 1024})->Args({0, 8192})->Args({1, 256});

void bm_additive_shares(benchmark::State& state) {
  crypto::deterministic_rng rng{5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::additive_shares(123456789, 3, rng));
  }
}
BENCHMARK(bm_additive_shares);

void bm_wire_roundtrip(benchmark::State& state) {
  for (auto _ : state) {
    net::wire_writer w;
    for (int i = 0; i < 16; ++i) {
      w.write_u64(static_cast<std::uint64_t>(i) * 0x9e3779b9);
      w.write_varint(static_cast<std::uint64_t>(i) << 20);
    }
    w.write_string("counter/name/with/path");
    const byte_buffer buf = w.take();
    net::wire_reader r{buf};
    std::uint64_t acc = 0;
    for (int i = 0; i < 16; ++i) {
      acc += r.read_u64();
      acc += r.read_varint();
    }
    benchmark::DoNotOptimize(acc + r.read_string().size());
  }
}
BENCHMARK(bm_wire_roundtrip);

}  // namespace

BENCHMARK_MAIN();
