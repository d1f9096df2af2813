// CI's fixed-ratio throughput gates in one plain program (no
// google-benchmark). Each check times a baseline and an optimized path over
// the same input and gates the ratio of their throughputs, which, unlike a
// raw rate, carries from one runner to the next:
//   tally_decode         serial vs batched final-vector decode, toy group,
//                        2^16 bins, 4 workers; one sample per seed  >= 2.0x
//   batched_ingest       per-event observe() through a string-keyed
//                        stream_taxonomy vs batched ingest fed by
//                        workload_cursor, 1 shard                   >= 5.0x
//   psc_parallel_ingest  PSC p256 inserts over 8 shards, no pool vs
//                        4 workers; stands down below 4 hardware
//                        threads, where the ratio means nothing     >= 1.8x
//   crypto_batch         serial vs batched rerandomize + strip, toy
//                        group, batch 8192, 4 workers               >= 3.0x
//
// Every check prints one JSON line to stdout: its inputs, both rates, the
// ratio, the threshold and the verdict. The program exits 1 and names each
// failed check on stderr. A check whose two paths disagree on their output
// fails the program outright.
//
// Usage: ci_gates
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/crypto/batch_engine.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/crypto/secure_rng.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/psc/data_collector.h"
#include "src/psc/messages.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace tormet;
using clock_type = std::chrono::steady_clock;

/// One check's measurement: `optimized / baseline` must reach `threshold`.
struct gate {
  std::string check;
  std::string inputs;  // JSON members naming the check's input
  double threshold = 0.0;
  double baseline_per_s = 0.0;
  double optimized_per_s = 0.0;
  bool stood_down = false;
};

/// Keeps `value` observable, so the optimizer cannot drop the work that
/// produced it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// The timing loop: calls `fn` until `window_s` seconds have elapsed and
/// returns the throughput, counting `items` per call.
template <typename Fn>
[[nodiscard]] double items_per_sec(std::size_t items, double window_s,
                                   const Fn& fn) {
  std::size_t calls = 0;
  const auto start = clock_type::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(clock_type::now() - start).count();
  } while (elapsed < window_s);
  return static_cast<double>(calls * items) / elapsed;
}

/// Same, after one untimed warm-up call (builds precompute tables and
/// faults in pages).
template <typename Fn>
[[nodiscard]] double warm_items_per_sec(std::size_t items, const Fn& fn) {
  fn();
  return items_per_sec(items, 0.5, fn);
}

[[noreturn]] void self_check_failed(const std::string& check,
                                    const std::string& why) {
  throw std::runtime_error{check + ": self-check failed: " + why};
}

/// The ingest gates' input: a zipf exit-stream workload for one DC.
[[nodiscard]] std::vector<std::vector<tor::event>> zipf_events(
    std::uint64_t events) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = events;
  params.seed = 8;
  return workload::generate_trace_events(params);
}

/// The collecting-DC fixture: configures `dc` for stream_taxonomy's
/// counters with zero sigmas (no noise, and no share keepers to blind
/// with, so reports carry the raw counts) and starts collection.
void start_collecting(privcount::data_collector& dc) {
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
    cfg.counter_names.push_back(spec.name);
    cfg.sigmas.push_back(0.0);
  }
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));
}

/// Serial vs batched final-vector tally decode: the TS's last step,
/// decoding the stripped ciphertext vector off the wire and counting
/// non-identity plaintexts. The serial side is the pre-engine per-bin loop
/// (full decode + is_identity); the batched side parses only the plaintext
/// components through the group arena decoder, sharded.
gate tally_decode(std::uint64_t seed) {
  constexpr std::size_t k_bins = std::size_t{1} << 16;
  constexpr std::size_t k_workers = 4;
  gate g{"tally_decode",
         "\"seed\":" + std::to_string(seed) +
             ",\"bins\":" + std::to_string(k_bins) +
             ",\"workers\":" + std::to_string(k_workers),
         2.0};
  const crypto::batch_engine engine{
      crypto::make_toy_group(), std::make_shared<util::thread_pool>(k_workers)};
  const crypto::elgamal& scheme = engine.scheme();
  crypto::deterministic_rng rng{seed};
  const auto kp = scheme.generate_keypair(rng);
  // A realistic stripped final vector: ~1/3 occupied bins.
  std::vector<std::uint8_t> bits(k_bins);
  for (std::size_t i = 0; i < k_bins; ++i) {
    bits[i] = static_cast<std::uint8_t>(i % 3 == 0);
  }
  const std::vector<byte_buffer> wire =
      engine.encode_batch(engine.strip_share_batch(
          engine.encrypt_bits_batch(kp.pub, bits,
                                    crypto::batch_engine::derive_seed(rng)),
          kp.secret));
  const std::vector<byte_view> views = views_of(wire);

  std::uint64_t serial_count = 0;
  g.baseline_per_s = warm_items_per_sec(k_bins, [&] {
    std::uint64_t count = 0;
    for (const auto& enc : wire) {
      const crypto::elgamal_ciphertext ct = scheme.decode(enc);
      if (!scheme.grp().is_identity(ct.b)) ++count;
    }
    serial_count = count;
  });
  std::uint64_t batched_count = 0;
  g.optimized_per_s = warm_items_per_sec(
      k_bins, [&] { batched_count = engine.tally_decode_count(views); });
  if (serial_count != batched_count) {
    self_check_failed(g.check, "serial counts " + std::to_string(serial_count) +
                                   ", batched " +
                                   std::to_string(batched_count));
  }
  return g;
}

/// The fixed per-event yardstick of the batched-ingest gate: the
/// stream_taxonomy closure behind a string-keyed adapter, the form every
/// instrument took before instruments declared their counters. Each event
/// is one std::function call; each increment names its counter as a string
/// and reaches its slot through two more std::function calls and a hash-map
/// lookup. Only this program uses it; its counts equal the registry
/// instrument's.
class string_keyed_stream_taxonomy final : public privcount::batch_instrument {
 public:
  string_keyed_stream_taxonomy()
      : batch_instrument{counter_names_of("stream_taxonomy")} {
    for (std::size_t i = 0; i < counters().size(); ++i) {
      index_.emplace(counters()[i], i);
    }
    index_of_ = [this](const std::string& counter) {
      return index_.find(counter)->second;
    };
  }

  void ingest(const tor::event* evs, std::size_t n, const std::size_t* slots,
              std::uint64_t* slab) const override {
    const target t{slots, slab};
    const incr_fn incr = make_incr(t);
    for (std::size_t i = 0; i < n; ++i) step_(evs[i], incr);
  }

  void ingest(const tor::event* const* evs, std::size_t n,
              const std::size_t* slots, std::uint64_t* slab) const override {
    const target t{slots, slab};
    const incr_fn incr = make_incr(t);
    for (std::size_t i = 0; i < n; ++i) step_(*evs[i], incr);
  }

 private:
  using incr_fn = std::function<void(const std::string&, std::uint64_t)>;
  struct target {
    const std::size_t* slots;
    std::uint64_t* slab;
  };

  static std::vector<std::string> counter_names_of(const std::string& name) {
    std::vector<std::string> out;
    for (const auto& spec : core::default_specs_for(name)) {
      out.push_back(spec.name);
    }
    return out;
  }

  [[nodiscard]] incr_fn make_incr(const target& t) const {
    return [this, &t](const std::string& counter, std::uint64_t amount) {
      t.slab[t.slots[index_of_(counter)]] += amount;
    };
  }

  std::unordered_map<std::string, std::size_t> index_;
  std::function<std::size_t(const std::string&)> index_of_;
  std::function<void(const tor::event&, const incr_fn&)> step_ =
      [](const tor::event& ev, const incr_fn& incr) {
        const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
        if (s == nullptr) return;
        incr("streams/total", 1);
        if (!s->is_initial) return;
        incr("streams/initial", 1);
        switch (s->kind) {
          case tor::address_kind::hostname:
            incr("streams/initial/hostname", 1);
            incr(s->port == 80 || s->port == 443
                     ? "streams/initial/hostname/web"
                     : "streams/initial/hostname/other",
                 1);
            break;
          case tor::address_kind::ipv4:
            incr("streams/initial/ipv4", 1);
            break;
          case tor::address_kind::ipv6:
            incr("streams/initial/ipv6", 1);
            break;
        }
      };
};

/// Batched ingest vs the per-event baseline: one generated zipf stream
/// pushed through workload_cursor::stream_window into a DC's ingest() path
/// (slot-indexed instruments over flat counter slabs), against observe()
/// per event with the string-keyed yardstick above.
gate batched_ingest() {
  constexpr std::uint64_t k_events = 200'000;
  const auto generated =
      std::make_shared<const std::vector<std::vector<tor::event>>>(
          zipf_events(k_events));
  const std::vector<tor::event>& events = generated->front();
  const std::size_t n = events.size();
  gate g{"batched_ingest",
         "\"events\":" + std::to_string(n) + ",\"shards\":1", 5.0};

  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("stream_taxonomy"));
  plan.workload.kind = cli::workload_kind::generate;
  plan.workload.model = "zipf";
  plan.workload.events = k_events;
  plan.workload.gen_seed = 8;
  plan.instruments = {"stream_taxonomy"};

  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});  // absorb DC->TS sends
  crypto::deterministic_rng rng{1};
  constexpr sim_time k_begin{std::numeric_limits<std::int64_t>::min()};
  constexpr sim_time k_end{std::numeric_limits<std::int64_t>::max()};

  // The yardstick must count exactly what the registry instrument counts:
  // one pass of each, compared report to report.
  const auto one_pass_report =
      [&](const privcount::data_collector::instrument& ins) {
        net::inproc_net check_bus;
        std::vector<std::uint64_t> values;
        check_bus.register_node(0, [&](const net::message& m) {
          if (m.type ==
              static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
            values = privcount::decode_dc_report(m).values;
          }
        });
        privcount::data_collector dc{1, 0, check_bus, rng};
        dc.add_instrument(ins);
        start_collecting(dc);
        dc.ingest(events.data(), n);
        dc.handle_message(privcount::encode_simple(
            0, 1, privcount::msg_type::stop_collection, 1));
        check_bus.run_until_quiescent();
        return values;
      };
  const auto yardstick = std::make_shared<const string_keyed_stream_taxonomy>();
  if (one_pass_report(yardstick) !=
      one_pass_report(core::instrument_by_name("stream_taxonomy"))) {
    self_check_failed(g.check, "the string-keyed yardstick miscounts");
  }

  privcount::data_collector scalar_dc{1, 0, bus, rng};
  scalar_dc.add_instrument(yardstick);
  start_collecting(scalar_dc);
  std::size_t scalar_total = 0;
  g.baseline_per_s = items_per_sec(n, 0.2, [&] {
    for (const tor::event& ev : events) scalar_dc.observe(ev);
    scalar_total += n;
  });

  privcount::data_collector dc{1, 0, bus, rng};
  dc.add_instrument(core::instrument_by_name("stream_taxonomy"));
  start_collecting(dc);
  std::size_t ingest_total = 0;
  g.optimized_per_s = items_per_sec(n, 0.4, [&] {
    cli::workload_cursor cursor{plan, 0, generated};
    cursor.stream_window(
        k_begin, k_end,
        [&dc](const tor::event* evs, std::size_t k) { dc.ingest(evs, k); });
    ingest_total += n;
  });
  if (scalar_dc.events_observed() != scalar_total ||
      dc.events_observed() != ingest_total) {
    self_check_failed(g.check, "a DC missed events");
  }
  return g;
}

/// Parallel PSC ingest: a p256 DC's ingest calls on the calling thread vs
/// on a 4-worker pool. Each call keeps every bin's last insert and runs
/// those as one batch engine pass; each insert is a real EC encryption, so
/// the pass scales near-linearly on a multi-core runner.
gate psc_parallel_ingest() {
  constexpr std::size_t k_workers = 4;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::vector<tor::event> events = zipf_events(2'000).front();
  gate g{"psc_parallel_ingest",
         "\"events\":" + std::to_string(events.size()) +
             ",\"workers\":" + std::to_string(k_workers) +
             ",\"hw\":" + std::to_string(hw),
         1.8};
  g.stood_down = hw < 4;

  const auto group = crypto::make_group(crypto::group_backend::p256);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);

  const auto psc_eps = [&](std::shared_ptr<util::thread_pool> pool) {
    net::inproc_net bus;
    bus.register_node(0, [](const net::message&) {});
    crypto::deterministic_rng rng{1};
    psc::data_collector dc{1, 0, bus, rng};
    dc.set_extractor(core::extractor_by_name("primary_sld"));
    if (pool != nullptr) dc.set_thread_pool(std::move(pool));
    psc::dc_configure_msg cfg;
    cfg.round_id = 1;
    cfg.bins = 1024;
    cfg.group = static_cast<std::uint8_t>(crypto::group_backend::p256);
    cfg.joint_pk = group->encode(kp.pub);
    dc.handle_message(psc::encode_dc_configure(0, 1, cfg));
    return items_per_sec(events.size(), 0.4, [&] {
      dc.ingest(events.data(), events.size());
    });
  };
  g.baseline_per_s = psc_eps(nullptr);
  g.optimized_per_s = psc_eps(std::make_shared<util::thread_pool>(k_workers));
  return g;
}

/// Serial vs batched ElGamal on the CP hot path: rerandomize then strip
/// one key share, per element vs through the batch engine's sharded pool.
gate crypto_batch() {
  constexpr std::size_t k_batch = 8192;
  constexpr std::size_t k_workers = 4;
  gate g{"crypto_batch",
         "\"op\":\"rerandomize_strip\",\"batch\":" + std::to_string(k_batch) +
             ",\"workers\":" + std::to_string(k_workers),
         3.0};
  const auto group = crypto::make_toy_group();
  const crypto::elgamal scheme{group};
  const crypto::batch_engine engine{
      group, std::make_shared<util::thread_pool>(k_workers)};
  crypto::deterministic_rng rng{2024};
  const auto kp = scheme.generate_keypair(rng);
  const auto input = scheme.encrypt_zero_batch(kp.pub, k_batch, rng);

  g.baseline_per_s = warm_items_per_sec(k_batch, [&] {
    std::vector<crypto::elgamal_ciphertext> out;
    out.reserve(input.size());
    for (const auto& ct : input) {
      out.push_back(scheme.strip_share(scheme.rerandomize(kp.pub, ct, rng),
                                       kp.secret));
    }
    keep(out);
  });
  const crypto::sha256_digest seed = crypto::batch_engine::derive_seed(rng);
  g.optimized_per_s = warm_items_per_sec(k_batch, [&] {
    keep(engine.strip_share_batch(
        engine.rerandomize_batch(kp.pub, input, seed), kp.secret));
  });
  return g;
}

}  // namespace

int main() {
  const std::vector<std::function<gate()>> checks = {
      [] { return tally_decode(2025); },
      [] { return tally_decode(2026); },
      batched_ingest,
      psc_parallel_ingest,
      crypto_batch,
  };
  std::size_t failures = 0;
  try {
    for (const auto& run : checks) {
      const gate g = run();
      const double ratio = g.optimized_per_s / g.baseline_per_s;
      const bool pass = ratio >= g.threshold;
      const char* verdict = g.stood_down ? "stood_down" : pass ? "pass" : "fail";
      std::printf(
          "{\"check\":\"%s\",%s,\"baseline_per_s\":%.0f,"
          "\"optimized_per_s\":%.0f,\"ratio\":%.2f,\"threshold\":%.1f,"
          "\"verdict\":\"%s\"}\n",
          g.check.c_str(), g.inputs.c_str(), g.baseline_per_s,
          g.optimized_per_s, ratio, g.threshold, verdict);
      std::fflush(stdout);
      if (!g.stood_down && !pass) {
        std::fprintf(stderr, "ci_gates: FAILED %s {%s}: %.2fx < %.1fx\n",
                     g.check.c_str(), g.inputs.c_str(), ratio, g.threshold);
        ++failures;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ci_gates: FAILED %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "ci_gates: %zu of %zu checks failed\n", failures,
               checks.size());
  return failures == 0 ? 0 : 1;
}
