// The traced run: one plan's whole schedule driven in this process through
// the public layer APIs, with a span around every call into a layer. It
// follows cli::run_reference_round (cursors windowed by the schedule, one
// shared ingest pool, the protocol deployment over the in-process bus) and
// adds the relay plane a DC process embeds for `relays` workloads, so its
// tally must match the reference byte for byte. Span names map to the
// per-layer metrics (see README.md):
//
//   traced                  root; its self time is the residual
//   workload.materialize    cli::materialize_plan_events
//   round.build             deployment, cursor and relay-plane construction
//   round.open / round.collect / round.close
//                           one deployment::run_round: before, inside and
//                           after the workload callback
//   cli.cursor              workload_cursor::stream_window (self time: file
//                           read, tor decode, windowing)
//   relay.route / relay.close
//                           relay_plane::route / relay_plane::close_window
//   core.ingest             core::event_sink::ingest
//   net.deliver             inproc_net::run_until_quiescent outside handlers
//   <protocol>.<role>.<phase>
//                           one message handler, by receiving role and type
#pragma once

#include <map>
#include <string>

#include "perfbench/src/spans.h"
#include "src/cli/deployment_plan.h"

namespace perfbench {

struct traced_run {
  std::string tally;
  tracer trace;
  /// Counts taken at the span boundaries: cli.cursor.events/spans/dropped,
  /// core.ingest.events/calls, relay.windows/keep_ratio/faults,
  /// net.msgs/bytes, psc.noise_bits.
  std::map<std::string, double> counts;
};

/// Runs the traced replay of `plan`; relay planes publish under
/// `publish_root`. Throws on any layer failure.
[[nodiscard]] traced_run run_traced(const tormet::cli::deployment_plan& plan,
                                    const std::string& publish_root);

}  // namespace perfbench
