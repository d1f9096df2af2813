#include "src/cli/workload_source.h"

#include <algorithm>
#include <iterator>

#include "src/core/instruments.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/workload/trace_gen.h"

namespace tormet::cli {

workload::trace_gen_params trace_gen_params_of(const deployment_plan& plan) {
  workload::trace_gen_params p;
  p.model = plan.workload.model;
  p.dcs = plan.ids_with(plan.protocol == "psc" ? node_role::psc_dc
                                               : node_role::privcount_dc)
              .size();
  p.scale = plan.workload.scale;
  p.events = plan.workload.events;
  p.seed = plan.workload.gen_seed;
  p.days = plan.workload.gen_days;
  return p;
}

workload::scenario_params scenario_params_of(const deployment_plan& plan) {
  // The same plan fields, the scenario name in the model slot.
  const workload::trace_gen_params p = trace_gen_params_of(plan);
  return {p.model, p.dcs, p.scale, p.events, p.seed, p.days};
}

std::shared_ptr<const std::vector<std::vector<tor::event>>>
materialize_plan_events(const deployment_plan& plan,
                        std::optional<std::size_t> dc) {
  switch (plan.workload.kind) {
    case workload_kind::generate:
    case workload_kind::relays:
      // relays shares generate's event table: the fleet detour changes HOW
      // a DC ingests its slice, never WHAT the slice contains.
      return std::make_shared<const std::vector<std::vector<tor::event>>>(
          workload::generate_trace_events(trace_gen_params_of(plan), dc));
    case workload_kind::scenario:
      return std::make_shared<const std::vector<std::vector<tor::event>>>(
          workload::generate_scenario_events(scenario_params_of(plan), dc));
    case workload_kind::synthetic:
    case workload_kind::trace:
    case workload_kind::socket:
      return nullptr;
  }
  throw invariant_error{"unhandled workload kind"};
}

bool is_event_workload(const deployment_plan& plan) {
  return plan.workload.kind != workload_kind::synthetic;
}

std::vector<std::size_t> scheduled_dark_dcs(const deployment_plan& plan,
                                            std::size_t round_index) {
  if (plan.workload.kind != workload_kind::scenario) return {};
  if (plan.schedule_rounds <= 1) return {};  // unbounded window, never covered
  const core::measurement_schedule sched = round_schedule_of(plan);
  const round_window win = round_window_for(plan, sched, round_index);
  const workload::scenario_shape shape =
      workload::shape_of(scenario_params_of(plan));
  std::vector<std::size_t> dark;
  for (const auto& w : shape.dropouts) {
    if (w.start <= win.start.seconds && w.end >= win.end.seconds &&
        std::find(dark.begin(), dark.end(), w.dc) == dark.end()) {
      dark.push_back(w.dc);
    }
  }
  std::sort(dark.begin(), dark.end());
  return dark;
}

churn_transition scheduled_churn(const deployment_plan& plan,
                                 std::size_t round_index) {
  const std::vector<std::size_t> now = scheduled_dark_dcs(plan, round_index);
  const std::vector<std::size_t> before =
      round_index > 0 ? scheduled_dark_dcs(plan, round_index - 1)
                      : std::vector<std::size_t>{};
  churn_transition t;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(t.exclude));
  std::set_difference(before.begin(), before.end(), now.begin(), now.end(),
                      std::back_inserter(t.readmit));
  return t;
}

workload_cursor::workload_cursor(const deployment_plan& plan,
                                 std::size_t dc_index)
    : workload_cursor{plan, dc_index, nullptr} {}

workload_cursor::workload_cursor(
    const deployment_plan& plan, std::size_t dc_index,
    std::shared_ptr<const std::vector<std::vector<tor::event>>> generated)
    : kind_{plan.workload.kind}, dc_index_{dc_index} {
  switch (kind_) {
    case workload_kind::synthetic:
      throw precondition_error{
          "synthetic workloads insert items, they do not stream events"};
    case workload_kind::trace:
      reader_ = std::make_unique<tor::trace_reader>(
          plan.workload.trace_dir + "/" + tor::trace_file_name(dc_index));
      return;
    case workload_kind::generate:
    case workload_kind::scenario:
    case workload_kind::relays:
      // A DC process renders only its own slice of the generation (a pure
      // function of the plan); the reference round shares one full table.
      // Either way the cursor only walks its own slice.
      generated_ = generated != nullptr
                       ? std::move(generated)
                       : materialize_plan_events(plan, dc_index);
      expects(dc_index_ < generated_->size(), "DC index out of generated range");
      return;
    case workload_kind::socket:
      // Bind/listen now, so a feeder's connect retry can land before the
      // first round opens; the feeder wait and per-recv stalls are bounded
      // by the round deadline.
      reader_ = std::make_unique<tor::event_socket_source>(
          static_cast<std::uint16_t>(plan.workload.event_port_base + dc_index),
          plan.round_deadline_ms);
      return;
  }
  throw invariant_error{"unhandled workload kind"};
}

std::optional<tor::event> workload_cursor::fetch() {
  if (failed_ || eof_) return std::nullopt;
  if (reader_ == nullptr) {  // a materialized slice
    const std::vector<tor::event>& slice = (*generated_)[dc_index_];
    if (next_generated_ < slice.size()) return slice[next_generated_++];
    eof_ = true;
    return std::nullopt;
  }
  try {
    std::optional<tor::event> ev = reader_->next();
    if (!ev.has_value()) eof_ = true;
    return ev;
  } catch (const net::wire_error& e) {
    // A trace *file* that breaks the stream contract is corrupt input.
    if (kind_ != workload_kind::socket) throw;
    // A live feeder died mid-stream (abrupt close, truncated record, a
    // stall past the deadline, or time going backwards). The pipeline
    // keeps running on whatever this DC already observed.
    failed_ = true;
    log_line{log_level::warn}
        << "DC " << dc_index_ << " event stream failed mid-round ("
        << e.what() << "); continuing without it";
    return std::nullopt;
  }
}

std::size_t workload_cursor::stream_window(sim_time start, sim_time end,
                                           const batch_sink& sink) {
  std::size_t delivered = 0;
  // Lookahead a previous window held back.
  if (pending_.has_value()) {
    if (pending_->at >= end) return 0;
    const tor::event ev = *std::move(pending_);
    pending_.reset();
    if (ev.at < start) {
      ++dropped_;
    } else {
      sink(&ev, 1);
      ++delivered;
    }
  }
  if (reader_ == nullptr && !eof_) {
    // Fast path: generated slices are stably time-sorted (workload::
    // trace_gen), so the inter-round gap is a prefix, the window end is a
    // lower_bound, and the whole window is handed to the sink as one
    // zero-copy span — no per-event work at all on the cursor side.
    const std::vector<tor::event>& slice = (*generated_)[dc_index_];
    std::size_t i = next_generated_;
    const std::size_t n = slice.size();
    while (i < n && slice[i].at < start) {
      ++dropped_;  // inter-round gap: collection stays on, counting only
      ++i;
    }
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(slice.begin() + static_cast<std::ptrdiff_t>(i),
                         slice.end(), end,
                         [](const tor::event& e, sim_time t) {
                           return e.at < t;
                         }) -
        slice.begin());
    if (hi > i) {
      sink(slice.data() + i, hi - i);
      delivered += hi - i;
    }
    // An event at or past `end` stays unconsumed in the slice — it IS the
    // lookahead, no pending_ copy needed.
    next_generated_ = hi;
    if (hi >= n) eof_ = true;
    return delivered;
  }
  // Block path: fetch into a reused buffer and flush span-wise.
  constexpr std::size_t k_block_events = 8192;
  block_.reserve(k_block_events);
  for (;;) {
    block_.clear();
    bool more = false;
    while (block_.size() < k_block_events) {
      std::optional<tor::event> ev = fetch();
      if (!ev.has_value()) break;  // end of stream (or failed live stream)
      if (ev->at >= end) {
        pending_ = std::move(ev);  // first event of a later window: hold it
        break;
      }
      if (ev->at < start) {
        ++dropped_;
        continue;
      }
      block_.push_back(*std::move(ev));
      more = block_.size() == k_block_events;
    }
    if (!block_.empty()) {
      sink(block_.data(), block_.size());
      delivered += block_.size();
    }
    if (!more) return delivered;
  }
}

std::size_t workload_cursor::drain() {
  std::size_t consumed = 0;
  if (pending_.has_value()) {
    pending_.reset();
    ++consumed;
  }
  while (fetch().has_value()) ++consumed;
  dropped_ += consumed;
  return consumed;
}

std::shared_ptr<util::thread_pool> make_ingest_pool(
    const deployment_plan& plan) {
  if (plan.dc_ingest_threads == 0) return nullptr;
  return std::make_shared<util::thread_pool>(plan.dc_ingest_threads);
}

void configure_dc_ingest(const deployment_plan& plan, core::event_sink& dc,
                         std::shared_ptr<util::thread_pool> pool) {
  dc.set_shards(plan.dc_shards);
  if (pool != nullptr) dc.set_thread_pool(std::move(pool));
}

void configure_dc(const deployment_plan& plan, psc::data_collector& dc,
                  std::shared_ptr<util::thread_pool> pool) {
  dc.set_extractor(core::extractor_by_name(plan.psc_extractor));
  configure_dc_ingest(plan, dc, std::move(pool));
}

void configure_dc(const deployment_plan& plan, privcount::data_collector& dc,
                  std::shared_ptr<util::thread_pool> pool) {
  expects(!plan.instruments.empty(),
          "event workload needs at least one instrument");
  for (const auto& name : plan.instruments) {
    dc.add_instrument(core::instrument_by_name(name));
  }
  configure_dc_ingest(plan, dc, std::move(pool));
}

namespace {

/// Adds `instrument` and the counter specs it feeds to `d`.
void add_instrument(trace_round_defaults& d, const std::string& instrument) {
  d.instruments.push_back(instrument);
  for (auto& spec : core::default_specs_for(instrument)) {
    d.counters.push_back(std::move(spec));
  }
}

}  // namespace

trace_round_defaults defaults_for_model(const std::string& model) {
  trace_round_defaults d;
  if (model == "zipf" || model == "browsing") {
    add_instrument(d, "stream_taxonomy");
    d.psc_extractor = "primary_sld";
  } else if (model == "population") {
    add_instrument(d, "entry_totals");
    d.psc_extractor = "client_ip";
  } else if (model == "onion") {
    add_instrument(d, "rendezvous");
    add_instrument(d, "hsdir_ahmia");
    d.psc_extractor = "published_address";
  } else if (model == "mixed") {
    add_instrument(d, "stream_taxonomy");
    add_instrument(d, "entry_totals");
    add_instrument(d, "rendezvous");
    d.psc_extractor = "client_ip";
  } else {
    throw precondition_error{"unknown trace model: " + model};
  }
  return d;
}

trace_round_defaults defaults_for_scenario(const std::string& name) {
  const workload::scenario_measurements m =
      workload::measurements_for_scenario(name);
  trace_round_defaults d;
  d.psc_extractor = m.psc_extractor;
  for (const auto& instrument : m.instruments) add_instrument(d, instrument);
  return d;
}

}  // namespace tormet::cli
