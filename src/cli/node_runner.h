// Single-role node entry points for distributed deployments. A
// tormet_node process calls run_node() with a deployment plan and its own
// node id; the function builds the distributed TCP fabric, instantiates
// exactly one protocol role (PSC TS/CP/DC or PrivCount TS/SK/DC) with a
// per-node RNG derived from (plan seed, node id), drives the plan's whole
// round *schedule* with explicit run_until(predicate) phases, and
// participates in the deterministic completion handshake:
//
//   TS: round 1 ... round N (same process; the tally file is rewritten
//       after every round) -> ROUND_DONE to every peer
//       -> waits for every surviving peer's ROUND_ACK -> exits
//   peer: serves protocol messages across all rounds until ROUND_DONE
//       -> ROUND_ACK to the TS -> flushes sends -> exits
//
// Completion is therefore explicit per node — no idle-timeout quiescence
// heuristic anywhere in the distributed path.
//
// Live multi-round pipeline (plan.schedule_rounds > 1): processes stay up
// across every round. Each DC opens its event source once (trace file or
// listening socket — see cli::workload_cursor) and partitions the ingested
// stream into rounds by sim-time window; events in inter-round gaps are
// counted-but-dropped. With plan.dc_grace_ms > 0 the TS tolerates faults:
// a DC that misses a phase by more than the grace is dropped from the
// deployment (later rounds exclude it; its ROUND_ACK is not awaited), and
// TS sends to unreachable peers are logged instead of fatal.
//
// Durable rounds (plan.durable_dir non-empty): the TS keeps the only
// durable state, a write-ahead op-log under durable_dir/node-<id>
// (util::durable_store) holding one record per committed round (tally
// bytes + per-DC participation deltas + the dropped set). A restarted TS
// replays the log, re-applies the exclusions it recovered and resumes the
// schedule at the first uncommitted round. Non-TS roles persist nothing:
// their per-round state is re-derived byte-identically from
// (plan seed, node id, round id) because every node reseeds its RNG per
// round (crypto::make_node_round_rng), exactly as the in-process
// reference deployments do. A failed round attempt (peer crash) is
// retried up to a small bound: the TS re-begins the same round id and the
// per-round determinism makes the retry's bytes identical to the
// interrupted attempt's, so recovery never perturbs the tally.
//
// Startup barrier and rejoin handshake: every peer announces itself with
// REJOIN_REQUEST once it serves, and the TS starts its first round only
// after every peer it has not dropped did (or one round deadline passed),
// so a slow start spends no phase grace. A durable TS — it may be a
// restarted one — asks with REJOIN_QUERY at startup, and at each round
// boundary asks its dropped peers and re-admits the responders
// (readmit_dc) before the next begin_round.
//
// Fault injection for tests: TORMET_FAULT="<node_id> exit_after_round <k>"
// makes that peer process exit cleanly once it handled round k's last
// message (a DC: after its report),
// "<node_id> delay_round <k> <ms>" stalls its collection phase in round k,
// "<node_id> crash_in_round <k>" / "<node_id> crash_after_round <k>"
// _Exit(42) mid-round / right after round k (0-based; "action:k" spelling
// also accepted). Clauses are ';'-separated and repeatable: several
// crash_in_round/crash_after_round clauses for one node accumulate into a
// round set, so multi-crash schedules inject every listed round. In a
// durable deployment each crash fires once per (node, action, round) — a
// marker file under durable_dir survives the restart — and the
// orchestrator's supervisor restarts exit-42 children up to the plan's
// max_restarts budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/privcount/counter.h"

namespace tormet::cli {

/// Round-completion control messages (outside the protocol msg_type
/// ranges: PSC uses 32..39, PrivCount 1..8).
enum class ctl_msg : std::uint16_t {
  round_done = 240,      // TS -> peer: round is over, acknowledge and exit
  round_ack = 241,       // peer -> TS: acknowledged; TS exits after all acks
  rejoin_request = 242,  // peer -> TS: I serve (at startup, or answering a
                         // query); re-admits a dropped peer at a boundary
  rejoin_query = 244,    // TS -> peer: still there? answer to rejoin
  dc_stats = 245,        // DC -> TS: privacy-safe accounting lines for the
                         // .summary sidecar (sent before the final ack)
};

/// Exit code of an injected crash; the orchestrator's supervisor restarts
/// children that die with it (durable deployments only).
inline constexpr int k_crash_exit_code = 42;

struct node_result {
  /// Serialized tally — non-empty only for tally-server roles (also
  /// written to the plan's tally_path).
  std::string tally;
};

/// Runs one node's role in a distributed round to completion. Throws
/// transport_error / precondition_error on protocol or fabric failures
/// (the tormet_node binary maps that to a non-zero exit).
[[nodiscard]] node_result run_node(const deployment_plan& plan,
                                   net::node_id self);

/// Canonical tally serializations, byte-compared between the distributed
/// and the in-process reference round.
[[nodiscard]] std::string serialize_psc_tally(std::uint64_t raw_count,
                                              std::uint64_t bins,
                                              std::uint64_t total_noise_bits);
[[nodiscard]] std::string serialize_privcount_tally(
    const std::vector<privcount::counter_result>& results);

/// Multi-round tally: the per-round serializations concatenated under one
/// header. A single round stays in the plain per-round format (returned
/// unwrapped), so classic single-round deployments keep their tally bytes.
[[nodiscard]] std::string serialize_multiround_tally(
    const std::vector<std::string>& round_tallies);

}  // namespace tormet::cli
