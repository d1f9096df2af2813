// Ablation: group-backend cost for the PSC pipeline stages (DC table
// initialization, oblivious inserts, homomorphic combine, each CP's
// strip-and-mix pass, the tally server's decode). p256 is the production
// backend; the toy 62-bit group is algebraically identical and lets
// simulations run at larger scale — this bench quantifies the gap.
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

  const auto fmt = [](double ms) { return format_sig(ms, 3) + " ms"; };
  table.add(std::string{name} + " init", "", fmt(init_ms));
  table.add(std::string{name} + " inserts (b/4)", "", fmt(insert_ms));
  table.add(std::string{name} + " combine", "", fmt(combine_ms));

  // One pass per CP: CP i strips its share, which leaves the vector under
  // the sum of the later CPs' shares, then shuffles and rerandomizes under
  // that onward key. The last CP's onward key is the identity, so it hands
  // the TS plaintexts.
  const std::vector<crypto::scalar> shares{kp1.secret, kp2.secret, kp3.secret};
  const std::vector<crypto::group_element> onward{
      scheme.combine_public_keys(
          std::vector<crypto::group_element>{kp2.pub, kp3.pub}),
      kp3.pub, group->identity()};
  for (std::size_t cp = 0; cp < shares.size(); ++cp) {
    t0 = clock_type::now();
    table_a = crypto::shuffle_and_rerandomize(
        engine, onward[cp], engine.strip_share_batch(table_a, shares[cp]), rng);
    table.add(std::string{name} + " CP " + std::to_string(cp + 1) +
                  " strip+mix",
              "", fmt(ms_since(t0)));
  }

  // The TS decodes the last CP's wire vector and counts non-identity bins.
  const std::vector<byte_buffer> wire = engine.encode_batch(table_a);
  t0 = clock_type::now();
  const std::uint64_t nonzero = engine.tally_decode_count(views_of(wire));
  table.add(std::string{name} + " TS decode+count", "", fmt(ms_since(t0)), "",
            "nonzero=" + std::to_string(nonzero));
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
