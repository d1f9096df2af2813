#include "perfbench/src/traced.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/cli/node_runner.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/net/inproc.h"
#include "src/privcount/deployment.h"
#include "src/privcount/messages.h"
#include "src/psc/deployment.h"
#include "src/psc/messages.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"

namespace perfbench {

namespace {

using namespace tormet;
using cli::node_role;

/// Handler span name for a message of `type` delivered to a node of
/// `role`: the protocol phase that message drives.
[[nodiscard]] std::string handler_span(node_role role, std::uint16_t type) {
  using pm = psc::msg_type;
  using vm = privcount::msg_type;
  switch (role) {
    case node_role::psc_ts:
      switch (static_cast<pm>(type)) {
        case pm::pk_share: return "psc.ts.setup";
        case pm::dc_vector: return "psc.ts.combine";
        case pm::mix_pass: return "psc.ts.forward";
        case pm::final_vector: return "psc.ts.decode";
        default: break;
      }
      break;
    case node_role::psc_cp:
      switch (static_cast<pm>(type)) {
        case pm::cp_configure:
        case pm::dc_configure: return "psc.cp.setup";
        case pm::mix_pass: return "psc.cp.mix";
        case pm::decrypt_pass: return "psc.cp.decrypt";
        default: break;
      }
      break;
    case node_role::psc_dc:
      switch (static_cast<pm>(type)) {
        case pm::dc_configure: return "psc.dc.setup";
        case pm::report_request: return "psc.dc.report";
        default: break;
      }
      break;
    case node_role::privcount_ts:
      switch (static_cast<vm>(type)) {
        case vm::dc_ready: return "privcount.ts.control";
        case vm::dc_report:
        case vm::sk_report: return "privcount.ts.combine";
        default: break;
      }
      break;
    case node_role::privcount_sk:
      return "privcount.sk";
    case node_role::privcount_dc:
      switch (static_cast<vm>(type)) {
        case vm::configure: return "privcount.dc.blind";
        case vm::start_collection: return "privcount.dc.control";
        case vm::stop_collection: return "privcount.dc.report";
        default: break;
      }
      break;
  }
  return std::string{cli::role_name(role)} + ".unexpected";
}

/// The transport decorator: counts every message and payload byte sent,
/// wraps every handler in a span named for its role and message type, and
/// books delivery time outside the handlers to net.deliver.
class traced_transport final : public net::transport {
 public:
  traced_transport(net::transport& inner, tracer& t,
                   const cli::deployment_plan& plan)
      : inner_{inner}, t_{t}, plan_{plan}, deliver_{t.intern("net.deliver")} {}

  void register_node(net::node_id id, net::message_handler handler) override {
    const node_role role = plan_.node(id).role;
    inner_.register_node(
        id, [this, role, h = std::move(handler)](const net::message& m) {
          const scoped_span s{t_, span_for(role, m.type)};
          h(m);
        });
  }

  void send(net::message msg) override {
    ++msgs_;
    bytes_ += msg.payload.size();
    inner_.send(std::move(msg));
  }

  std::size_t run_until_quiescent() override {
    const scoped_span s{t_, deliver_};
    return inner_.run_until_quiescent();
  }

  [[nodiscard]] std::uint64_t msgs() const noexcept { return msgs_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::uint32_t span_for(node_role role, std::uint16_t type) {
    const auto key = std::make_pair(role, type);
    const auto it = names_.find(key);
    if (it != names_.end()) return it->second;
    return names_[key] = t_.intern(handler_span(role, type));
  }

  net::transport& inner_;
  tracer& t_;
  const cli::deployment_plan& plan_;
  std::uint32_t deliver_;
  std::map<std::pair<node_role, std::uint16_t>, std::uint32_t> names_;
  std::uint64_t msgs_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Event-sink decorator: one core.ingest span and count per ingest call.
class traced_sink final : public core::event_sink {
 public:
  traced_sink(core::event_sink& inner, tracer& t)
      : inner_{inner}, t_{t}, ingest_{t.intern("core.ingest")} {}

  void observe(const tor::event& ev) override { ingest(&ev, 1); }
  void ingest(const tor::event* evs, std::size_t n) override {
    const scoped_span s{t_, ingest_};
    inner_.ingest(evs, n);
    ++calls_;
    events_ += n;
  }
  void set_shards(std::size_t n) override { inner_.set_shards(n); }
  [[nodiscard]] std::size_t shards() const noexcept override {
    return inner_.shards();
  }
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool) override {
    inner_.set_thread_pool(std::move(pool));
  }
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return inner_.events_observed();
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  core::event_sink& inner_;
  tracer& t_;
  std::uint32_t ingest_;
  std::uint64_t calls_ = 0;
  std::uint64_t events_ = 0;
};

/// Every DC's event feed: one cursor per DC (the reference round's shape)
/// and, for `relays` workloads, the relay plane a DC process embeds
/// between its cursor and its ingest plane.
class traced_feed {
 public:
  traced_feed(const cli::deployment_plan& plan, tracer& t,
              const std::string& publish_root)
      : plan_{plan},
        t_{t},
        sched_{cli::round_schedule_of(plan)},
        cursor_{t.intern("cli.cursor")},
        route_{t.intern("relay.route")},
        close_{t.intern("relay.close")} {
    std::shared_ptr<const std::vector<std::vector<tor::event>>> shared;
    if (plan.workload.kind != cli::workload_kind::trace) {
      const scoped_span s{t, t.intern("workload.materialize")};
      shared = cli::materialize_plan_events(plan);
    }
    const scoped_span s{t, t.intern("round.build")};
    pool_ = cli::make_ingest_pool(plan);
    const std::size_t dcs = plan.ids_with(plan.protocol == "psc"
                                              ? node_role::psc_dc
                                              : node_role::privcount_dc)
                                .size();
    for (std::size_t i = 0; i < dcs; ++i) cursors_.emplace_back(plan, i, shared);
    if (plan.workload.kind == cli::workload_kind::relays) {
      for (std::size_t i = 0; i < dcs; ++i) {
        planes_.emplace_back(plan.workload.relay_count / dcs, plan.sample_prob,
                             relay::sampling_seed_of(plan.rng_seed),
                             publish_root + "/dc-" + std::to_string(i));
      }
    }
  }

  /// Installs the plan's ingest-plane knobs and wraps DC `i` for tracing.
  void attach(std::size_t i, core::event_sink& dc) {
    cli::configure_dc_ingest(plan_, dc, pool_);
    sinks_.push_back(std::make_unique<traced_sink>(dc, t_));
    expects(sinks_.size() == i + 1, "DCs must attach in order");
  }

  /// Streams round `index`'s window into every DC, in DC order.
  void feed(std::size_t index) {
    const cli::round_window w = cli::round_window_for(plan_, sched_, index);
    for (std::size_t i = 0; i < cursors_.size(); ++i) {
      traced_sink& sink = *sinks_[i];
      if (planes_.empty()) {
        stream(i, w, [&](const tor::event* evs, std::size_t n) {
          sink.ingest(evs, n);
        });
        continue;
      }
      relay::relay_plane& plane = planes_[i];
      stream(i, w, [&](const tor::event* evs, std::size_t n) {
        const scoped_span s{t_, route_};
        plane.route(evs, n);
      });
      const scoped_span s{t_, close_};
      plane.close_window(index, sink);
    }
  }

  void add_counts(std::map<std::string, double>& counts) const {
    double dropped = 0;
    for (const auto& c : cursors_) {
      dropped += static_cast<double>(c.dropped_outside_windows());
    }
    double calls = 0;
    double ingested = 0;
    for (const auto& s : sinks_) {
      calls += static_cast<double>(s->calls());
      ingested += static_cast<double>(s->events());
    }
    double windows = 0;
    double observed = 0;
    double sampled = 0;
    double faults = 0;
    for (const auto& p : planes_) {
      const relay::aggregate_stats& a = p.totals();
      windows += static_cast<double>(a.windows_ingested);
      observed += static_cast<double>(a.observed);
      sampled += static_cast<double>(a.sampled);
      faults += static_cast<double>(a.missing + a.duplicates + a.late_dropped +
                                    a.rejected);
    }
    counts["cli.cursor.events"] = static_cast<double>(cursor_events_);
    counts["cli.cursor.spans"] = static_cast<double>(cursor_spans_);
    counts["cli.cursor.dropped"] = dropped;
    counts["core.ingest.events"] = ingested;
    counts["core.ingest.calls"] = calls;
    counts["relay.windows"] = windows;
    counts["relay.keep_ratio"] = observed > 0 ? sampled / observed : 0.0;
    counts["relay.faults"] = faults;
  }

 private:
  template <typename Sink>
  void stream(std::size_t i, const cli::round_window& w, Sink&& sink) {
    const scoped_span s{t_, cursor_};
    cursor_events_ += cursors_[i].stream_window(
        w.start, w.end, [&](const tor::event* evs, std::size_t n) {
          ++cursor_spans_;
          sink(evs, n);
        });
  }

  const cli::deployment_plan& plan_;
  tracer& t_;
  core::measurement_schedule sched_;
  std::uint32_t cursor_;
  std::uint32_t route_;
  std::uint32_t close_;
  std::shared_ptr<util::thread_pool> pool_;
  std::vector<cli::workload_cursor> cursors_;
  std::vector<relay::relay_plane> planes_;
  std::vector<std::unique_ptr<traced_sink>> sinks_;
  std::uint64_t cursor_events_ = 0;
  std::uint64_t cursor_spans_ = 0;
};

/// Runs one deployment::run_round call under the round.open /
/// round.collect / round.close spans.
template <typename RunRound>
auto traced_round(tracer& t, traced_feed& feed, std::size_t index,
                  RunRound&& run_round) {
  const std::uint32_t open = t.intern("round.open");
  const std::uint32_t collect = t.intern("round.collect");
  const std::uint32_t close = t.intern("round.close");
  std::size_t open_span = t.open(open);
  std::size_t close_span = tracer::k_no_parent;
  auto out = run_round([&] {
    t.close(open_span);
    {
      const scoped_span s{t, collect};
      feed.feed(index);
    }
    close_span = t.open(close);
  });
  t.close(close_span);
  return out;
}

[[nodiscard]] std::vector<tor::relay_id> placeholder_relays(std::size_t n) {
  std::vector<tor::relay_id> relays(n);
  for (std::size_t i = 0; i < n; ++i) relays[i] = static_cast<tor::relay_id>(i);
  return relays;
}

}  // namespace

traced_run run_traced(const cli::deployment_plan& plan,
                      const std::string& publish_root) {
  expects(plan.workload.kind == cli::workload_kind::trace ||
              plan.workload.kind == cli::workload_kind::generate ||
              plan.workload.kind == cli::workload_kind::relays,
          "traced run supports trace, generate and relays workloads");
  const std::uint32_t rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  traced_run out;
  tracer& t = out.trace;
  const std::uint32_t build = t.intern("round.build");
  const std::size_t root = t.open(t.intern("traced"));
  net::inproc_net inner;
  traced_transport bus{inner, t, plan};
  std::optional<traced_feed> feed{std::in_place, plan, t, publish_root};
  std::vector<std::string> tallies;

  if (plan.protocol == "psc") {
    std::optional<psc::deployment> dep;
    {
      const scoped_span s{t, build};
      psc::deployment_config cfg;
      cfg.num_computation_parties = plan.ids_with(node_role::psc_cp).size();
      cfg.measured_relays =
          placeholder_relays(plan.ids_with(node_role::psc_dc).size());
      cfg.round = plan.round;
      cfg.rng_seed = plan.rng_seed;
      dep.emplace(bus, cfg);
      dep->set_extractor(core::extractor_by_name(plan.psc_extractor));
      for (std::size_t i = 0; i < cfg.measured_relays.size(); ++i) {
        feed->attach(i, dep->dc_at(i));
      }
    }
    double noise_bits = 0;
    for (std::uint32_t r = 0; r < rounds; ++r) {
      const psc::round_outcome res = traced_round(
          t, *feed, r, [&](auto&& workload) { return dep->run_round(workload); });
      noise_bits += static_cast<double>(res.total_noise_bits);
      tallies.push_back(cli::serialize_psc_tally(res.raw_count, res.bins,
                                                 res.total_noise_bits));
    }
    out.counts["psc.noise_bits"] = noise_bits;
    const scoped_span s{t, build};
    dep.reset();
  } else {
    expects(plan.protocol == "privcount", "unknown protocol in plan");
    std::optional<privcount::deployment> dep;
    {
      const scoped_span s{t, build};
      privcount::deployment_config cfg;
      cfg.num_share_keepers = plan.ids_with(node_role::privcount_sk).size();
      cfg.measured_relays =
          placeholder_relays(plan.ids_with(node_role::privcount_dc).size());
      cfg.privacy = plan.privacy;
      cfg.noise_enabled = plan.privcount_noise_enabled;
      cfg.rng_seed = plan.rng_seed;
      dep.emplace(bus, cfg);
      for (const auto& name : plan.instruments) {
        dep->add_instrument(core::instrument_by_name(name));
      }
      for (std::size_t i = 0; i < cfg.measured_relays.size(); ++i) {
        feed->attach(i, dep->dc_at(i));
      }
    }
    for (std::uint32_t r = 0; r < rounds; ++r) {
      tallies.push_back(cli::serialize_privcount_tally(traced_round(
          t, *feed, r, [&](auto&& workload) {
            return dep->run_round(plan.counters, workload);
          })));
    }
    out.counts["psc.noise_bits"] = 0;
    const scoped_span s{t, build};
    dep.reset();
  }
  out.tally = cli::serialize_multiround_tally(tallies);
  feed->add_counts(out.counts);
  out.counts["net.msgs"] = static_cast<double>(bus.msgs());
  out.counts["net.bytes"] = static_cast<double>(bus.bytes());
  {
    const scoped_span s{t, build};
    feed.reset();
  }
  t.close(root);
  return out;
}

}  // namespace perfbench
