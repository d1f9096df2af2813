// Ablation: group-backend cost for the PSC pipeline stages (DC table
// initialization, oblivious inserts, homomorphic combine, mix pass,
// decryption pass). p256 is the production backend; the toy 62-bit group is
// algebraically identical and lets simulations run at larger scale — this
// bench quantifies the gap.
#include "common.h"

#include <chrono>

#include "src/crypto/elgamal.h"
#include "src/crypto/shuffle.h"

namespace {

using namespace tormet;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

void run_backend(const char* name, crypto::group_backend backend,
                 std::size_t bins, repro_table& table) {
  const auto group = crypto::make_group(backend);
  const crypto::batch_engine engine{group};
  const crypto::elgamal& scheme = engine.scheme();
  crypto::deterministic_rng rng{7};

  const auto kp1 = scheme.generate_keypair(rng);
  const auto kp2 = scheme.generate_keypair(rng);
  const auto kp3 = scheme.generate_keypair(rng);
  const crypto::group_element joint = scheme.combine_public_keys(
      std::vector<crypto::group_element>{kp1.pub, kp2.pub, kp3.pub});

  // DC table init (bins encryptions of zero).
  auto t0 = clock_type::now();
  std::vector<crypto::elgamal_ciphertext> table_a;
  table_a.reserve(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    table_a.push_back(scheme.encrypt_zero(joint, rng));
  }
  const double init_ms = ms_since(t0);

  // Oblivious inserts (fresh encrypt-one overwrites).
  t0 = clock_type::now();
  for (std::size_t i = 0; i < bins / 4; ++i) {
    table_a[i * 4 % bins] = scheme.encrypt_one(joint, rng);
  }
  const double insert_ms = ms_since(t0);

  // Homomorphic combine of two DC tables.
  t0 = clock_type::now();
  for (std::size_t i = 0; i < bins; ++i) {
    table_a[i] = scheme.add(table_a[i], table_a[(i + 1) % bins]);
  }
  const double combine_ms = ms_since(t0);

  // One CP mix pass (shuffle + rerandomize). Encoding the input stands in
  // for the wire bytes a CP receives.
  t0 = clock_type::now();
  crypto::shuffle_transcript transcript;
  std::vector<crypto::elgamal_ciphertext> mixed =
      crypto::shuffle_and_rerandomize_encoded(engine, joint, table_a,
                                              engine.encode_batch(table_a),
                                              rng, transcript)
          .output;
  const double mix_ms = ms_since(t0);

  // Decryption passes (3 CPs strip shares, then count).
  t0 = clock_type::now();
  std::size_t nonzero = 0;
  for (auto& ct : mixed) {
    ct = scheme.strip_share(ct, kp1.secret);
    ct = scheme.strip_share(ct, kp2.secret);
    ct = scheme.strip_share(ct, kp3.secret);
    if (!group->is_identity(ct.b)) ++nonzero;
  }
  const double decrypt_ms = ms_since(t0);

  const auto fmt = [](double ms) { return format_sig(ms, 3) + " ms"; };
  table.add(std::string{name} + " init", "", fmt(init_ms));
  table.add(std::string{name} + " inserts (b/4)", "", fmt(insert_ms));
  table.add(std::string{name} + " combine", "", fmt(combine_ms));
  table.add(std::string{name} + " mix pass", "", fmt(mix_ms));
  table.add(std::string{name} + " 3x decrypt+count", "", fmt(decrypt_ms),
            "", "nonzero=" + std::to_string(nonzero));
}

int run() {
  constexpr std::size_t bins = 2048;
  std::printf("Ablation — PSC pipeline cost per group backend (bins = %zu)\n\n",
              bins);
  repro_table table{"stage timings"};
  run_backend("toy62", crypto::group_backend::toy, bins, table);
  run_backend("p256", crypto::group_backend::p256, bins, table);
  table.print();
  std::printf("Reading: the toy group runs the identical protocol ~10-100x\n"
              "faster, which is why the large-scale benches use it; p256 is\n"
              "the deployment backend (tests cover both).\n");
  return 0;
}

}  // namespace

int main() { return run(); }
