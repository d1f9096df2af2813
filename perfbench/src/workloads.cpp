#include "perfbench/src/workloads.h"

#include <stdexcept>

#include "src/core/instruments.h"
#include "src/util/sim_time.h"

namespace perfbench {

namespace {

using tormet::cli::deployment_plan;
using tormet::cli::workload_kind;

/// Distinct, seed-derived streams for the generator and the deployment.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 31)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 29)) | 1;
}

[[nodiscard]] std::vector<tormet::privcount::counter_spec> specs_for(
    const std::vector<std::string>& instruments) {
  std::vector<tormet::privcount::counter_spec> specs;
  for (const auto& name : instruments) {
    for (auto& spec : tormet::core::default_specs_for(name)) {
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

void daily_rounds(deployment_plan& plan, std::uint32_t days) {
  plan.schedule_rounds = days;
  plan.round_duration_s = tormet::k_seconds_per_day;
  plan.round_gap_s = 0;
}

workload paper_day(std::uint64_t seed, size_class size) {
  const std::vector<std::string> instruments{"entry_totals"};
  workload w;
  w.name = "paper-day";
  w.plan = tormet::cli::make_privcount_plan(16, 3, specs_for(instruments));
  w.plan.rng_seed = derive(seed, 1);
  w.plan.instruments = instruments;
  w.plan.privcount_noise_enabled = true;  // paper noise: default allocation
  w.plan.workload.kind = workload_kind::trace;
  w.plan.durable_dir = "durable";  // replaced by a fresh directory per run
  daily_rounds(w.plan, 2);
  tormet::workload::trace_gen_params gen;
  gen.model = "population";
  gen.dcs = 16;
  gen.scale = size == size_class::full ? 0.05 : 0.0005;
  gen.days = 2;
  gen.seed = derive(seed, 2);
  w.traces = gen;
  // Its first two or three deployments after a setup pass take 2-3x the
  // warm time, at unchanged CPU time.
  w.warmup_deployments = 3;
  w.sizes = {{"model", "population"},
             {"scale", std::to_string(gen.scale)},
             {"days", "2"},
             {"dcs", "16"},
             {"sks", "3"}};
  return w;
}

workload psc_crypto_heavy(std::uint64_t seed, size_class size) {
  workload w;
  w.name = "psc-crypto-heavy";
  const std::uint64_t bins = size == size_class::full ? 1024 : 64;
  w.plan = tormet::cli::make_psc_plan(16, 3, bins);
  w.plan.rng_seed = derive(seed, 1);
  // The tiny size swaps in the toy group so the test stays fast; the
  // measured size runs the production p256 backend.
  w.plan.round.group = size == size_class::full
                           ? tormet::crypto::group_backend::p256
                           : tormet::crypto::group_backend::toy;
  w.plan.psc_extractor = "primary_sld";  // the statistic of Table 2
  w.plan.workload.kind = workload_kind::trace;
  tormet::workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 16;
  gen.events = size == size_class::full ? 20'000 : 800;
  gen.days = 1;
  gen.seed = derive(seed, 2);
  w.traces = gen;
  w.sizes = {{"model", "zipf"},
             {"events", std::to_string(gen.events)},
             {"bins", std::to_string(bins)},
             {"group", size == size_class::full ? "p256" : "toy"},
             {"dcs", "16"},
             {"cps", "3"}};
  return w;
}

workload relay_fanin(std::uint64_t seed, size_class size) {
  const std::vector<std::string> instruments{"stream_taxonomy", "tld_histogram",
                                             "domain_sets"};
  workload w;
  w.name = "relay-fanin";
  w.plan = tormet::cli::make_privcount_plan(4, 3, specs_for(instruments));
  w.plan.rng_seed = derive(seed, 1);
  w.plan.instruments = instruments;
  w.plan.privcount_noise_enabled = true;
  w.plan.workload.kind = workload_kind::relays;
  w.plan.workload.relay_count = 200;  // 4 DCs x 50 embedded agents
  w.plan.workload.model = "zipf";
  w.plan.workload.events = size == size_class::full ? 2'000'000 : 20'000;
  w.plan.workload.gen_seed = derive(seed, 2);
  w.plan.workload.gen_days = 2;
  w.plan.sample_prob = 0.5;
  w.plan.dc_shards = 4;
  w.plan.dc_ingest_threads = 1;
  // The durable op-log, so that a gated workload covers it: paper-day,
  // which has it too, is not in BENCHMARK.json.
  w.plan.durable_dir = "durable";  // replaced by a fresh directory per run
  daily_rounds(w.plan, 2);
  w.sizes = {{"model", "zipf"},
             {"events", std::to_string(w.plan.workload.events)},
             {"days", "2"},
             {"durable", "yes"},
             {"relays", "200"},
             {"sample_prob", "0.5"},
             {"dcs", "4"},
             {"sks", "3"}};
  return w;
}

}  // namespace

std::size_t workload::dc_count() const {
  return plan.ids_with(plan.protocol == "psc"
                           ? tormet::cli::node_role::psc_dc
                           : tormet::cli::node_role::privcount_dc)
      .size();
}

workload make_workload(const std::string& name, std::uint64_t seed,
                       size_class size) {
  if (name == "paper-day") return paper_day(seed, size);
  if (name == "psc-crypto-heavy") return psc_crypto_heavy(seed, size);
  if (name == "relay-fanin") return relay_fanin(seed, size);
  throw std::invalid_argument{"unknown workload: " + name};
}

}  // namespace perfbench
