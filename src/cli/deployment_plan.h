// Serializable description of one distributed deployment: the node topology
// (id, role, listen address), protocol parameters, deployment seed,
// collection workload (synthetic items, trace-file replay, generated event
// streams, or socket-fed events — see workload_spec), the measurement
// wiring (instrument/extractor names), and the tally output path. A plan
// file is
// the single source of truth shared by every tormet_node process in a
// round AND by the in-process reference round the orchestrator checks
// byte-identity against — both sides derive per-node RNG streams, DC item
// sets, and role wiring from the same plan.
//
// The on-disk format is line-based text (`key value...`, '#' comments),
// chosen over an ad-hoc binary blob so operators can write configs by hand
// (see README "Running a distributed deployment"). Doubles are printed
// with round-trip precision, so serialize -> parse is lossless.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/schedule.h"
#include "src/net/tcp.h"
#include "src/privcount/counter.h"
#include "src/psc/tally_server.h"

namespace tormet::cli {

enum class node_role : std::uint8_t {
  psc_ts,
  psc_cp,
  psc_dc,
  privcount_ts,
  privcount_sk,
  privcount_dc,
};

[[nodiscard]] std::string_view role_name(node_role role);
/// Throws precondition_error on an unknown role string.
[[nodiscard]] node_role parse_role(std::string_view name);

struct node_spec {
  net::node_id id = 0;
  node_role role = node_role::psc_dc;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// What each DC measures during the collection phase. The synthetic kind is
/// the original plan-derived item workload (PSC only); the other kinds feed
/// tor::event streams through the DC's observe() pipeline:
///   trace     — DC k replays `<trace_dir>/dc-<k>.trace` (tor::trace_reader)
///   generate  — DC k renders slice k of workload::generate_trace_events
///               ({model, dcs, scale, events, seed, days}) and replays it
///               (the reference round renders every slice); declared as
///               `workload generate <model> <scale> <events> <seed>
///               [<days>]`
///   socket    — DC k listens on 127.0.0.1:(event_port_base + k) and ingests
///               a trace stream a feeder pushes (tormet_tracegen --feed)
///   scenario  — DC k renders slice k of workload::generate_scenario_events
///               (a named time-varying scenario: flash_crowd, diurnal,
///               botnet_surge, relay_churn, country_block) and replays it;
///               declared as `workload scenario
///               <name>,<scale>,<events>,<seed>[,<days>]`
///   relays    — the generate workload fed through a simulated relay fleet
///               (src/relay/): DC k's slice is routed onto relay_count/dcs
///               embedded stats agents that sample (see sample_prob),
///               publish per-window `.pub` files, and are aggregated back
///               into the DC's sharded ingest plane; declared as `workload
///               relays <count>,<model>,<scale>,<events>,<seed>[,<days>]`
enum class workload_kind : std::uint8_t {
  synthetic,
  trace,
  generate,
  socket,
  scenario,
  relays,
};

[[nodiscard]] std::string_view workload_kind_name(workload_kind kind);

struct workload_spec {
  workload_kind kind = workload_kind::synthetic;
  std::string trace_dir;              // kind == trace
  /// generate: trace model name; scenario: scenario name.
  std::string model = "zipf";
  /// generate: simulation network_scale; scenario: client-population scale.
  double scale = 1e-4;
  /// generate: zipf-model event budget; scenario: baseline actions/day.
  std::uint64_t events = 5'000;
  std::uint64_t gen_seed = 1;         // generate / scenario
  /// generate/scenario/relays: days of activity to render; day d's events
  /// carry sim times in [d·86400, (d+1)·86400).
  std::uint64_t gen_days = 1;
  std::uint16_t event_port_base = 0;  // kind == socket
  /// relays: TOTAL simulated relays across the deployment, split evenly
  /// over the DC nodes (validated: >= dc count and divisible by it).
  std::uint64_t relay_count = 0;
};

struct deployment_plan {
  /// "psc" (unique-count round) or "privcount" (counter round).
  std::string protocol = "psc";
  std::vector<node_spec> nodes;
  /// Deployment seed; node RNG streams derive from (seed, node id).
  std::uint64_t rng_seed = 3141;

  // -- PSC round parameters ------------------------------------------------
  psc::round_params round{};

  // -- PrivCount round parameters ------------------------------------------
  dp::privacy_params privacy{};
  bool privcount_noise_enabled = true;
  std::vector<privcount::counter_spec> counters;

  // -- Round schedule --------------------------------------------------------
  /// Number of measurement rounds the deployment runs. Every process stays
  /// alive across all of them: the TS opens and closes epochs while DCs keep
  /// ingesting their event stream, partitioning observed events into rounds
  /// by sim-time window (see round_schedule_of / core::measurement_schedule).
  /// 1 = the classic single round, with the whole stream replayed unwindowed.
  std::uint32_t schedule_rounds = 1;
  /// Collection-window length per round (the paper's epochs are 24 h).
  std::int64_t round_duration_s = k_measurement_round_seconds;
  /// Inter-round gap. Events observed inside a gap are counted-but-dropped.
  std::int64_t round_gap_s = 0;
  /// Straggler grace for the live pipeline: how long the TS waits for
  /// missing DC readiness/reports each phase before proceeding without the
  /// stragglers and excluding them from later rounds. 0 = strict mode: the
  /// TS waits the full round deadline and any missing DC fails the round.
  int dc_grace_ms = 0;

  // -- Collection workload -------------------------------------------------
  workload_spec workload;
  /// PSC: which item extractor maps replayed events to distinct items
  /// (core::extractor_by_name). Unused by synthetic workloads.
  std::string psc_extractor = "client_ip";
  /// PrivCount: which instruments map replayed events to counter
  /// increments (core::instrument_by_name). Required for event workloads.
  std::vector<std::string> instruments;

  /// Synthetic workload (workload.kind == synthetic): each PSC DC inserts
  /// `items_per_dc` items unique to it plus `shared_items` items inserted
  /// by every DC (exercising the union semantics of the oblivious tables).
  /// See items_for_dc().
  std::uint64_t items_per_dc = 0;
  std::uint64_t shared_items = 0;

  /// Where the tally-server process writes the round's serialized tally.
  std::string tally_path = "tally.out";
  /// Per-phase run_until deadline for every node.
  int round_deadline_ms = 120'000;

  // -- Durability ------------------------------------------------------------
  /// When non-empty, the TS keeps a write-ahead op-log under
  /// `<durable_dir>/node-<id>/` (util::durable_store), one record per
  /// committed round (tally and exclusion state), and crashed processes
  /// are restarted: a restarted TS replays the log and resumes the
  /// schedule, a restarted peer re-derives each round it is asked to run
  /// again. Empty = classic non-durable rounds.
  std::string durable_dir;

  /// Ingest shards per DC process (>= 1): batched events are hash-
  /// partitioned by client/circuit key across this many flat counter
  /// slabs (PrivCount) or seeded-insert buckets (PSC) before merging.
  /// Purely a throughput knob — the merged tally bytes are identical for
  /// every value, which tests/distributed_test.cpp asserts.
  std::size_t dc_shards = 1;

  /// Ingest worker threads per DC process (0 = run every shard on the
  /// calling thread). Like dc_shards, purely a throughput knob: each
  /// worker owns a disjoint set of shards, so the merged tally bytes are
  /// identical for every value.
  std::size_t dc_ingest_threads = 0;

  /// Relay-fleet circuit sampling probability in (0, 1]: each relay's
  /// stats agent keeps a circuit (all its events) iff a seed-derived hash
  /// of the circuit key clears this fraction (relay::sample_event). 1.0
  /// keeps everything — byte-identical to an unsampled cursor feed, the
  /// standing correctness gate. Only meaningful for `workload relays`.
  double sample_prob = 1.0;

  /// Supervisor restart budget per child process: a node that exits with
  /// the injected-crash code is restarted up to this many times (durable
  /// deployments only). Replaces the old hard-coded cap of 5.
  int max_restarts = 5;

  [[nodiscard]] bool durable() const noexcept { return !durable_dir.empty(); }

  [[nodiscard]] const node_spec& node(net::node_id id) const;
  [[nodiscard]] std::vector<net::node_id> ids_with(node_role role) const;
  /// The transport peer map (every node's listen address).
  [[nodiscard]] std::map<net::node_id, net::tcp_endpoint> endpoints() const;
  /// The plan's single tally-server node (psc_ts or privcount_ts).
  [[nodiscard]] net::node_id tally_server_id() const;
};

/// Round-trip-exact double formatting (%.17g) shared by the plan and
/// tally serializers — the distributed byte-identity checks depend on
/// every writer printing doubles identically.
[[nodiscard]] std::string format_double(double v);

[[nodiscard]] std::string serialize_plan(const deployment_plan& plan);
/// Parses a serialized plan; throws precondition_error with a line-numbered
/// message on malformed input. Round-trips serialize_plan exactly.
[[nodiscard]] deployment_plan parse_plan(std::string_view text);

[[nodiscard]] deployment_plan load_plan(const std::string& path);
void save_plan(const deployment_plan& plan, const std::string& path);

/// Deterministic synthetic workload for one PSC DC: `items_per_dc` items
/// unique to the node plus `shared_items` common ones. Pure function of the
/// plan and the node id, so node processes and the in-process reference
/// round insert identical item streams.
[[nodiscard]] std::vector<std::string> items_for_dc(const deployment_plan& plan,
                                                    net::node_id id);

/// The plan's round schedule as an enforceable core::measurement_schedule:
/// `schedule_rounds` windows of `round_duration_s` seconds separated by
/// `round_gap_s`, all measuring the plan's one statistic (protocol +
/// extractor/instruments). The node runner and the in-process reference
/// round both drive their epochs off this object.
[[nodiscard]] core::measurement_schedule round_schedule_of(
    const deployment_plan& plan);

/// One round's collection window, as fed to workload_cursor::stream_window.
struct round_window {
  sim_time start;
  sim_time end;
};

/// The collection window of round `round_index` (0-based). Single-round
/// plans return an unbounded window — the legacy whole-stream replay —
/// regardless of the schedule's nominal duration. Shared by
/// cli::node_runner (DC processes) and cli::run_reference_round so both
/// sides partition identically.
[[nodiscard]] round_window round_window_for(
    const deployment_plan& plan, const core::measurement_schedule& schedule,
    std::size_t round_index);

/// Position of a DC node among the plan's DC nodes (plan order) — the
/// workload partition index: DC k replays trace slice k. Throws
/// precondition_error when `id` is not a DC node of the plan.
[[nodiscard]] std::size_t dc_index_of(const deployment_plan& plan,
                                      net::node_id id);

/// Builds a small PSC deployment plan: TS node 0, CPs 1..cps, DCs after
/// (ports are left 0 — the orchestrator assigns free ones).
[[nodiscard]] deployment_plan make_psc_plan(std::size_t dcs, std::size_t cps,
                                            std::uint64_t bins);

/// Builds a PrivCount plan: TS node 0, SKs 1..sks, DCs after.
[[nodiscard]] deployment_plan make_privcount_plan(
    std::size_t dcs, std::size_t sks,
    std::vector<privcount::counter_spec> counters);

}  // namespace tormet::cli
