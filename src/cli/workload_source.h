// Event-workload streaming for distributed rounds: resolves a plan's
// workload section into the per-DC event stream and pushes it through a
// data collector's observe() pipeline. Used symmetrically by
// cli::node_runner (each DC process streams its own slice) and
// cli::run_reference_round (the in-process round streams every slice), so
// both sides ingest byte-identical event sequences:
//
//   trace     — streams <trace_dir>/dc-<k>.trace with a bounded buffer
//   generate  — renders slice k of workload::generate_trace_events (a
//               pure function of the plan; a DC process renders only its
//               own slice) and replays it
//   scenario  — renders slice k of workload::generate_scenario_events
//               (named time-varying scenarios with ground-truth sidecars)
//               and replays it
//   relays    — materializes like generate; the DC routes the slice through
//               its simulated relay fleet (src/relay/relay_plane.h) before
//               ingesting, instead of feeding the sink directly
//   socket    — listens on event_port_base + k and ingests a pushed trace
//               stream (file mode only in the reference round: what a
//               feeder pushed cannot be re-derived from the plan)
//
// Replay is time-ordered.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "src/cli/deployment_plan.h"
#include "src/core/event_sink.h"
#include "src/privcount/data_collector.h"
#include "src/psc/data_collector.h"
#include "src/tor/events.h"
#include "src/tor/trace_file.h"
#include "src/tor/trace_socket.h"
#include "src/util/thread_pool.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_gen.h"

namespace tormet::cli {

/// The trace-generation parameters a plan's `generate` workload resolves
/// to — the single plan→params mapping, shared by node processes and the
/// in-process reference round (a divergence between the two would surface
/// only as an unexplained byte-identity failure).
[[nodiscard]] workload::trace_gen_params trace_gen_params_of(
    const deployment_plan& plan);

/// The scenario parameters a plan's `scenario` workload resolves to — the
/// same single-mapping contract as trace_gen_params_of.
[[nodiscard]] workload::scenario_params scenario_params_of(
    const deployment_plan& plan);

/// Materializes a plan's in-memory workload (`generate` or `scenario`) as
/// the per-DC event table cursors slice; nullptr for kinds that stream
/// from files or sockets. Pure function of the plan. Given `dc`, only
/// slice `dc` is filled (a table of the same shape, every other slice
/// empty): a DC process renders just what it replays, and that slice is
/// the one the reference round's full table holds.
[[nodiscard]] std::shared_ptr<const std::vector<std::vector<tor::event>>>
materialize_plan_events(const deployment_plan& plan,
                        std::optional<std::size_t> dc = std::nullopt);

/// True when the plan's collection phase feeds tor::events (anything but
/// the synthetic item workload).
[[nodiscard]] bool is_event_workload(const deployment_plan& plan);

/// DC indices whose scenario dropout windows cover the ENTIRE collection
/// window of round `round_index` (0-based): the DC is scheduled dark for
/// the whole round, so the TS excludes it at the round boundary and
/// re-admits it when its outage ends — the paper's churned-relay shape.
/// Empty for non-scenario workloads, for partial-round outages (the DC
/// still reports what it saw), and for single-round plans (their window is
/// unbounded, so no finite outage covers it). Pure function of the plan:
/// the TS and the reference round derive identical exclusion schedules.
[[nodiscard]] std::vector<std::size_t> scheduled_dark_dcs(
    const deployment_plan& plan, std::size_t round_index);

/// The scheduled-churn transition at the boundary into round `round_index`
/// (0-based), as DC indices: the DCs that go dark for it and the DCs whose
/// outage just ended. The one transition rule the TS and the reference
/// round apply (re-admissions first); a pure function of the plan, so a
/// restarted TS derives it exactly like an uninterrupted one.
struct churn_transition {
  std::vector<std::size_t> exclude;
  std::vector<std::size_t> readmit;
};
[[nodiscard]] churn_transition scheduled_churn(const deployment_plan& plan,
                                               std::size_t round_index);

/// One DC's live event stream across a whole deployment lifetime. A cursor
/// opens its source once — trace file, materialized generation, or
/// listening event socket — and stays open across every round of the
/// plan's schedule, handing out events window by window (a single-round
/// plan's one window is unbounded, so it replays the whole stream):
///
///   stream_window(start, end)  — delivers events with start <= t < end to
///       the sink as contiguous spans; events before `start` (the
///       inter-round gap) are counted-but-dropped, per the paper's
///       always-on collection; the first event at or past `end` is held
///       as lookahead for the next window.
///   drain()                    — consumes the rest of the stream, counting
///       everything as dropped (trailing gap / feeder shutdown).
///
/// Trace and socket sources read through the same tor::trace_reader, so a
/// socket stream is held to the trace contract: intact records in
/// non-decreasing sim time.
///
/// Live-stream fault tolerance: a socket stream that breaks that contract
/// mid-stream (abrupt close, truncated or corrupt record, stall past the
/// deadline, time going backwards) marks the cursor failed and reads as
/// end-of-stream — later rounds still complete with whatever this DC
/// observed. Corrupt *files* still throw: a trace file is authoritative
/// input, not a flaky peer.
class workload_cursor {
 public:
  /// Opens DC `dc_index`'s stream for `plan` (throws precondition_error for
  /// synthetic plans). A generated workload renders only slice `dc_index`.
  /// Socket sources bind their listen port here, so a feeder's connect
  /// retry can land before the first round opens.
  workload_cursor(const deployment_plan& plan, std::size_t dc_index);
  /// Reference-round variant: share one materialized `generate` workload
  /// across every DC's cursor instead of rendering a slice per DC.
  workload_cursor(
      const deployment_plan& plan, std::size_t dc_index,
      std::shared_ptr<const std::vector<std::vector<tor::event>>> generated);

  /// Contiguous-span sink for batched event delivery: `evs[0..n)` is valid
  /// only for the duration of the call. The one event-delivery shape in the
  /// repo — core::event_sink::ingest matches it directly.
  using batch_sink = std::function<void(const tor::event* evs, std::size_t n)>;

  /// Streams events with sim time in [start, end) into `sink` as
  /// contiguous spans — the one window-delivery API (a generated slice is
  /// handed out zero-copy; file/socket sources are blocked through a
  /// reused buffer). Returns the number of events delivered.
  std::size_t stream_window(sim_time start, sim_time end,
                            const batch_sink& sink);
  /// Consumes the remainder of the stream (counted as dropped). Call after
  /// the last round so a socket feeder's trailing bytes are drained.
  std::size_t drain();

  /// Events consumed outside every collection window (gap + drained).
  [[nodiscard]] std::uint64_t dropped_outside_windows() const noexcept {
    return dropped_;
  }
  /// True once a live (socket) stream died mid-round; the cursor then
  /// reads as exhausted.
  [[nodiscard]] bool stream_failed() const noexcept { return failed_; }

 private:
  [[nodiscard]] std::optional<tor::event> fetch();

  workload_kind kind_;
  std::uint64_t dropped_ = 0;
  bool failed_ = false;
  bool eof_ = false;
  std::optional<tor::event> pending_;  // lookahead held across windows

  // kind == trace or socket: a trace file, or an event_socket_source.
  std::unique_ptr<tor::trace_reader> reader_;
  std::vector<tor::event> block_;  // reused batch buffer (trace/socket)
  std::shared_ptr<const std::vector<std::vector<tor::event>>> generated_;
  std::size_t dc_index_ = 0;
  std::size_t next_generated_ = 0;  // cursor into generated_[dc_index_]
};

/// Builds the plan's DC ingest worker pool: nullptr when
/// plan.dc_ingest_threads == 0, where a PrivCount DC runs every shard on
/// the calling thread and a PSC DC on its host-sized crypto pool.
/// Callers feeding several DCs share one pool across them.
[[nodiscard]] std::shared_ptr<util::thread_pool> make_ingest_pool(
    const deployment_plan& plan);

/// Installs the plan's ingest-plane knobs (dc_shards, ingest pool) on any
/// event sink. A null pool leaves the sink's current pool untouched (the
/// in-process PSC deployment wires its own).
void configure_dc_ingest(const deployment_plan& plan, core::event_sink& dc,
                         std::shared_ptr<util::thread_pool> pool);

/// Installs the plan's extractor (psc_extractor) and ingest-plane knobs
/// on a PSC DC.
void configure_dc(const deployment_plan& plan, psc::data_collector& dc,
                  std::shared_ptr<util::thread_pool> pool);

/// Installs the plan's instruments and ingest-plane knobs on a PrivCount
/// DC.
void configure_dc(const deployment_plan& plan, privcount::data_collector& dc,
                  std::shared_ptr<util::thread_pool> pool);

/// Measurement defaults for a trace model: the instruments that consume
/// its events, their counter specs, and the PSC extractor with signal on
/// the model's event mix. tormet_tracegen writes plans from these.
struct trace_round_defaults {
  std::vector<std::string> instruments;
  std::vector<privcount::counter_spec> counters;
  std::string psc_extractor;
};
[[nodiscard]] trace_round_defaults defaults_for_model(const std::string& model);

/// Measurement defaults for a named scenario (the
/// workload::measurements_for_scenario wiring with its counter specs
/// filled in). tormet_tracegen --scenario writes plans from these.
[[nodiscard]] trace_round_defaults defaults_for_scenario(
    const std::string& name);

}  // namespace tormet::cli
