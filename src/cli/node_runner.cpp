#include "src/cli/node_runner.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "src/cli/workload_source.h"
#include "src/crypto/secure_rng.h"
#include "src/net/wire.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/share_keeper.h"
#include "src/privcount/tally_server.h"
#include "src/psc/computation_party.h"
#include "src/psc/data_collector.h"
#include "src/psc/estimator.h"
#include "src/psc/tally_server.h"
#include "src/util/check.h"
#include "src/util/file_io.h"
#include "src/util/logging.h"
#include "src/util/op_log.h"

namespace tormet::cli {

namespace {

using clock = std::chrono::steady_clock;

/// Attempts a durable TS makes per round before falling back to the
/// classic grace-and-exclude path on the final one. A crashed peer's
/// supervisor restart typically lands within the first retry.
constexpr std::uint32_t k_ts_max_attempts = 3;
/// Fabric drain between round attempts: lets the failed attempt's
/// in-flight messages land while the round guards still recognize them.
constexpr int k_retry_drain_ms = 200;
/// Upper bound on the round-boundary wait for rejoin answers from
/// queried (dropped) peers.
constexpr int k_rejoin_wait_ms = 750;

/// Per-process fault injection for the multi-round test harness. Reads
/// TORMET_FAULT, a ';'-separated list of clauses
/// "<node_id> exit_after_round <k>", "<node_id> delay_round <k> <ms>",
/// "<node_id> crash_in_round <k>", "<node_id> crash_after_round <k>"
/// (k 0-based; "action:k" also parses) and merges the clauses naming this
/// process's node. Crash clauses ACCUMULATE into round sets — repeating
/// crash_in_round for one node schedules a crash in every listed round
/// (the old scalar fields silently kept only the last clause).
struct fault_spec {
  bool exit_after = false;
  std::size_t exit_round = 0;
  bool delay = false;
  std::size_t delay_round = 0;
  int delay_ms = 0;
  std::set<std::size_t> crash_in_rounds;
  std::set<std::size_t> crash_after_rounds;
};

[[nodiscard]] fault_spec fault_for(net::node_id self) {
  fault_spec f;
  const char* env = std::getenv("TORMET_FAULT");
  if (env == nullptr) return f;
  std::istringstream clauses{env};
  std::string clause;
  while (std::getline(clauses, clause, ';')) {
    std::replace(clause.begin(), clause.end(), ':', ' ');
    std::istringstream in{clause};
    net::node_id id = 0;
    std::string action;
    in >> id >> action;
    if (in.fail() || id != self) continue;
    if (action == "exit_after_round") {
      in >> f.exit_round;
      f.exit_after = !in.fail();
    } else if (action == "delay_round") {
      in >> f.delay_round >> f.delay_ms;
      f.delay = !in.fail();
    } else if (action == "crash_in_round") {
      std::size_t round = 0;
      in >> round;
      if (!in.fail()) f.crash_in_rounds.insert(round);
    } else if (action == "crash_after_round") {
      std::size_t round = 0;
      in >> round;
      if (!in.fail()) f.crash_after_rounds.insert(round);
    }
  }
  return f;
}

/// Fires the injected crash `action` via _Exit(42) when `rounds` (a
/// crash clause's round set) names protocol round `round_id` (1-based, as
/// the messages carry it): no destructors — the op-log write()s already
/// issued are all that survive, exactly like a real kill. When `flush` is
/// set, the sends it has queued reach the kernel first: a peer crashing
/// after a round has finished that round, reply included.
/// In a durable deployment the crash fires at most once per
/// (action, round): a marker file under durable_dir outlives the restart.
void maybe_crash(const deployment_plan& plan, net::node_id self,
                 const std::set<std::size_t>& rounds, const char* action,
                 std::uint32_t round_id, net::tcp_net* flush = nullptr) {
  if (round_id < 1 || !rounds.contains(round_id - 1)) return;
  const std::size_t round_index = round_id - 1;
  if (plan.durable()) {
    const std::string marker = plan.durable_dir + "/crashed-" +
                               std::to_string(self) + "-" + action + "-" +
                               std::to_string(round_index);
    const int fd =
        ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return;  // already fired in a previous incarnation
    ::close(fd);
  }
  log_line{log_level::warn} << "node " << self << ": injected crash (" << action
                            << " " << round_index << ")";
  if (flush != nullptr) flush->flush_sends();
  std::_Exit(k_crash_exit_code);
}

// -- durable state -----------------------------------------------------------

/// Per-DC participation counters for the privacy-safe round summary: they
/// count protocol outcomes (reports present/absent, exclusions, rejoins),
/// never measurement data.
struct dc_counters {
  std::uint64_t reported = 0;
  std::uint64_t missed = 0;
  std::uint64_t excluded = 0;
  std::uint64_t rejoined = 0;
};

/// One committed round, as appended to the TS op-log: the round's tally
/// bytes plus the participation deltas recovery folds back into the
/// cumulative state.
struct round_record {
  std::uint32_t round = 0;
  std::uint32_t retries = 0;
  std::set<net::node_id> dropped;  // full dropped set at end of round
  std::map<net::node_id, dc_counters> delta;  // 0/1 flags for this round
  std::string tally;
};

/// Cumulative TS state: what op-log replay reconstructs after a restart.
struct ts_state {
  std::unique_ptr<util::durable_store> store;  // null: classic deployment
  std::vector<std::string> tallies;
  std::set<net::node_id> dropped;
  std::map<net::node_id, dc_counters> counters;
  std::uint64_t retries_total = 0;
  std::uint32_t next_round = 1;  // first round this process still owes
};

[[noreturn]] void record_fail(const char* what) {
  throw util::op_log_error{std::string{"TS durable record: "} + what};
}

[[nodiscard]] std::string encode_round_record(const round_record& r) {
  std::ostringstream out;
  out << "tormet-ts-round-v1\n";
  out << "round " << r.round << "\n";
  out << "retries " << r.retries << "\n";
  out << "dropped";
  for (const auto id : r.dropped) out << " " << id;
  out << "\n";
  for (const auto& [id, c] : r.delta) {
    out << "dc " << id << " " << c.reported << " " << c.missed << " "
        << c.excluded << " " << c.rejoined << "\n";
  }
  out << "tally " << r.tally.size() << "\n" << r.tally;
  return out.str();
}

[[nodiscard]] round_record decode_round_record(byte_view payload) {
  std::istringstream in{std::string{payload.begin(), payload.end()}};
  std::string line;
  if (!std::getline(in, line) || line != "tormet-ts-round-v1") {
    record_fail("bad round-record magic");
  }
  round_record r;
  bool have_tally = false;
  while (!have_tally && std::getline(in, line)) {
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    net::node_id id = 0;
    if (key == "round") {
      if (!(ls >> r.round)) record_fail("bad round line");
    } else if (key == "retries") {
      if (!(ls >> r.retries)) record_fail("bad retries line");
    } else if (key == "dropped") {
      while (ls >> id) r.dropped.insert(id);
    } else if (key == "dc") {
      dc_counters c;
      if (!(ls >> id >> c.reported >> c.missed >> c.excluded >> c.rejoined)) {
        record_fail("bad dc line");
      }
      r.delta[id] = c;
    } else if (key == "tally") {
      std::uint64_t len = 0;
      if (!(ls >> len) || len > (64u << 20)) record_fail("bad tally length");
      r.tally.resize(static_cast<std::size_t>(len));
      in.read(r.tally.data(), static_cast<std::streamsize>(len));
      if (static_cast<std::uint64_t>(in.gcount()) != len) {
        record_fail("truncated tally bytes");
      }
      have_tally = true;
    } else {
      record_fail("unknown round-record key");
    }
  }
  if (r.round == 0 || !have_tally) record_fail("incomplete round record");
  return r;
}

/// Folds one committed round into the cumulative state — the single code
/// path shared by live commits and crash-recovery replay, so a restarted
/// TS reconstructs exactly what the previous incarnation held.
void apply_round_record(ts_state& s, const round_record& r) {
  if (r.round != s.next_round) record_fail("round gap in op-log");
  s.tallies.push_back(r.tally);
  s.dropped = r.dropped;
  for (const auto& [id, c] : r.delta) {
    s.counters[id].reported += c.reported;
    s.counters[id].missed += c.missed;
    s.counters[id].excluded += c.excluded;
    s.counters[id].rejoined += c.rejoined;
  }
  s.retries_total += r.retries;
  s.next_round = r.round + 1;
}

[[nodiscard]] ts_state load_ts_state(const deployment_plan& plan,
                                     net::node_id self) {
  ts_state s;
  if (!plan.durable()) return s;
  s.store = std::make_unique<util::durable_store>(
      plan.durable_dir + "/node-" + std::to_string(self));
  for (const auto& r : s.store->recovered()) {
    apply_round_record(s, decode_round_record(r));
  }
  if (s.next_round > 1) {
    log_line{log_level::info}
        << "TS: recovered " << s.tallies.size()
        << " committed round(s) from the op-log; resuming at round "
        << s.next_round;
  }
  return s;
}

/// The privacy-safe deployment summary: round/retry totals, per-DC
/// participation counters, and the DCs' accounting lines
/// (`dc_stats <id> <line>` per payload line; a map keyed by node id keeps
/// their order deterministic). Kept OUT of the tally bytes (a sidecar file)
/// so observability never perturbs the byte-identity gate.
[[nodiscard]] std::string ts_summary(
    const ts_state& s, const std::string& protocol,
    const std::map<net::node_id, std::string>& dc_stats) {
  std::ostringstream out;
  out << "tormet-summary-v1\n";
  out << "protocol " << protocol << "\n";
  out << "rounds " << (s.next_round - 1) << "\n";
  out << "round_retries " << s.retries_total << "\n";
  out << "excluded_now";
  for (const auto id : s.dropped) out << " " << id;
  out << "\n";
  for (const auto& [id, c] : s.counters) {
    out << "dc " << id << " reported " << c.reported << " missed " << c.missed
        << " excluded " << c.excluded << " rejoined " << c.rejoined << "\n";
  }
  for (const auto& [id, text] : dc_stats) {
    std::istringstream in{text};
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out << "dc_stats " << id << " " << line << "\n";
    }
  }
  return out.str();
}

/// Commits one round: folds it into the cumulative state, appends the
/// op-log record, and rewrites the tally file plus its .summary sidecar
/// atomically.
void commit_round(ts_state& s, const deployment_plan& plan, round_record rec,
                  const std::string& protocol) {
  apply_round_record(s, rec);
  if (s.store != nullptr) s.store->append(as_bytes(encode_round_record(rec)));
  util::write_file_atomic(plan.tally_path,
                          as_bytes(serialize_multiround_tally(s.tallies)));
  util::write_file_atomic(plan.tally_path + ".summary",
                          as_bytes(ts_summary(s, protocol, {})));
}

// -- transport helpers -------------------------------------------------------

/// Transport decorator for the tally-server role: a send to an unreachable
/// peer is logged and dropped instead of failing the whole deployment — a
/// dead DC must not take the TS (and every later round) down with it.
/// Missing peers still surface, as completion-predicate timeouts or as
/// grace-based exclusion.
class tolerant_transport final : public net::transport {
 public:
  explicit tolerant_transport(net::tcp_net& inner) : inner_{inner} {}

  void register_node(net::node_id id, net::message_handler handler) override {
    inner_.register_node(id, std::move(handler));
  }
  void send(net::message msg) override {
    const net::node_id to = msg.to;
    try {
      inner_.send(std::move(msg));
    } catch (const net::transport_error& e) {
      log_line{log_level::warn}
          << "TS: send to node " << to << " failed (" << e.what()
          << "); dropping";
    }
  }
  std::size_t run_until_quiescent() override {
    return inner_.run_until_quiescent();
  }
  void run_until(const std::function<bool()>& done, int deadline_ms) override {
    inner_.run_until(done, deadline_ms);
  }

 private:
  net::tcp_net& inner_;
};

/// Runs the fabric until `done` holds or `grace_ms` elapses, whichever is
/// first; returns done(). The straggler-tolerance primitive of the live
/// pipeline: the caller decides what to do about peers that missed the
/// window.
[[nodiscard]] bool run_with_grace(net::tcp_net& net,
                                  const std::function<bool()>& done,
                                  int grace_ms) {
  const auto grace_end = clock::now() + std::chrono::milliseconds{grace_ms};
  // The predicate flips at the grace, so the outer deadline is pure slack;
  // widen the sum in case a hand-built plan carries an enormous grace.
  const int deadline = static_cast<int>(
      std::min<std::int64_t>(static_cast<std::int64_t>(grace_ms) + 60'000,
                             std::numeric_limits<int>::max()));
  net.run_until([&] { return done() || clock::now() >= grace_end; }, deadline);
  return done();
}

/// The serve deadline for a non-TS node: the whole schedule runs in one
/// process lifetime, and per round the TS may spend a full phase deadline
/// plus up to two grace windows waiting out stragglers before this peer
/// sees the next message — budget all of it (times the retry bound when
/// the deployment is durable), plus one deadline for the startup barrier
/// and one for the completion handshake.
[[nodiscard]] int serve_deadline_ms(const deployment_plan& plan) {
  const std::int64_t attempts = plan.durable() ? k_ts_max_attempts : 1;
  const std::int64_t per_round =
      attempts * (static_cast<std::int64_t>(plan.round_deadline_ms) +
                  2 * static_cast<std::int64_t>(std::max(0, plan.dc_grace_ms)) +
                  k_retry_drain_ms + k_rejoin_wait_ms);
  const std::int64_t total =
      per_round * std::max<std::uint32_t>(1, plan.schedule_rounds) +
      2 * static_cast<std::int64_t>(plan.round_deadline_ms);
  return static_cast<int>(
      std::min<std::int64_t>(total, std::numeric_limits<int>::max()));
}

/// Waits at most `wait_ms` until every one of `ids` has announced that it
/// serves (its REJOIN_REQUEST is in `announced`). With `query`, first asks
/// each one not yet announced with a REJOIN_QUERY.
void await_announced(net::transport& out, net::tcp_net& net,
                     net::node_id self, const std::vector<net::node_id>& ids,
                     bool query, const std::set<net::node_id>& announced,
                     int wait_ms) {
  for (const auto id : ids) {
    if (!query || announced.contains(id)) continue;
    out.send(net::message{
        self, id, static_cast<std::uint16_t>(ctl_msg::rejoin_query), {}});
  }
  const auto all_in = [&] {
    return std::all_of(ids.begin(), ids.end(), [&](net::node_id id) {
      return announced.contains(id);
    });
  };
  (void)run_with_grace(net, all_in, wait_ms);
}

/// Round-boundary rejoin admission (durable deployments only): queries
/// every currently-dropped peer, waits briefly for answers, then re-admits
/// every pending requester that was dropped. Every peer announces itself
/// unsolicited once it serves, so a restart pays no wait in the common
/// case.
void admit_rejoiners(net::transport& out, net::tcp_net& net,
                     const deployment_plan& plan, net::node_id self,
                     const std::function<void(net::node_id)>& readmit,
                     std::set<net::node_id>& dropped,
                     std::set<net::node_id>& pending,
                     std::set<net::node_id>& rejoined_now) {
  if (!plan.durable()) return;  // classic deployments: exclusion is final
  if (!dropped.empty()) {
    int wait_ms = k_rejoin_wait_ms;
    if (plan.dc_grace_ms > 0) wait_ms = std::min(wait_ms, plan.dc_grace_ms);
    await_announced(out, net, self, {dropped.begin(), dropped.end()}, true,
                    pending, wait_ms);
  }
  for (const auto id : pending) {
    if (dropped.erase(id) > 0) {
      readmit(id);
      rejoined_now.insert(id);
    }
  }
  pending.clear();
}

void send_round_done(net::transport& out, net::node_id self, net::node_id to) {
  out.send(net::message{self, to,
                        static_cast<std::uint16_t>(ctl_msg::round_done), {}});
}

/// Sends ROUND_DONE to every peer and blocks until each *surviving* peer is
/// in `acked` (peers in `dropped` were excluded mid-deployment; an ack from
/// them anyway is harmless). A peer that crashed after its last round may
/// have taken its ROUND_DONE down with it; the caller resends it when the
/// restarted peer announces itself.
void finish_round_as_ts(net::transport& out, net::tcp_net& net,
                        const deployment_plan& plan, net::node_id self,
                        const std::set<net::node_id>& dropped,
                        const std::set<net::node_id>& acked) {
  std::vector<net::node_id> expected;
  for (const auto& n : plan.nodes) {
    if (n.id == self) continue;
    if (!dropped.contains(n.id)) expected.push_back(n.id);
    send_round_done(out, self, n.id);
  }
  net.run_until(
      [&] {
        return std::all_of(expected.begin(), expected.end(),
                           [&](net::node_id id) { return acked.contains(id); });
      },
      plan.round_deadline_ms);
  net.flush_sends();
}

// -- peer roles --------------------------------------------------------------

/// The protocol round id a PSC or PrivCount message carries: every message
/// of both protocols starts with it as a u32.
[[nodiscard]] std::uint32_t round_of(const net::message& m) {
  net::wire_reader in{m.payload};
  return in.read_u32();
}

/// The three messages a peer role's round bookkeeping hooks into.
struct peer_hooks {
  template <class msg_type>
  peer_hooks(msg_type opens, msg_type crashes_in, msg_type ends)
      : configure{static_cast<std::uint16_t>(opens)},
        crash_in{static_cast<std::uint16_t>(crashes_in)},
        round_end{static_cast<std::uint16_t>(ends)} {}

  std::uint16_t configure;  // opens a round: the per-round reseed
  std::uint16_t crash_in;   // crash_in_round fires before it is handled
  std::uint16_t round_end;  // exit/crash_after_round fire after it is handled
};

/// Serves a CP, SK or DC role until the TS's ROUND_DONE arrives (or an
/// injected exit_after_round fires), then acks and flushes. The round
/// bookkeeping every peer shares runs here, keyed by `hooks`: the
/// per-round reseed and the crash points. A peer keeps no durable state: a
/// restarted one re-derives each round the TS re-drives.
/// `handle` processes protocol messages and gets the round the peer was
/// last configured for; rejoin control traffic is answered here. When
/// `final_stats` is set, its text rides a DC_STATS message sent BEFORE the
/// ack on the same channel — per-channel FIFO guarantees the TS folds the
/// stats into the .summary sidecar before it stops waiting.
void serve_peer(
    net::tcp_net& net, const deployment_plan& plan, net::node_id self,
    const fault_spec& fault, crypto::deterministic_rng& rng,
    const peer_hooks& hooks,
    const std::function<void(const net::message&, std::uint32_t)>& handle,
    const std::function<std::string()>& final_stats = nullptr) {
  const net::node_id ts_id = plan.tally_server_id();
  std::uint32_t configured = 0;  // 1-based protocol round id
  bool done = false;
  bool quit = false;
  // Control traffic to the TS: a fault-tolerant TS that already excluded
  // this node does not wait for it, so a closed channel must not fail the
  // node.
  const auto tell_ts = [&](ctl_msg type, byte_buffer payload) {
    try {
      net.send(net::message{self, ts_id, static_cast<std::uint16_t>(type),
                            std::move(payload)});
    } catch (const net::transport_error&) {
    }
  };
  net.register_node(self, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(ctl_msg::round_done)) {
      if (final_stats != nullptr) {
        const std::string stats = final_stats();
        tell_ts(ctl_msg::dc_stats, byte_buffer{stats.begin(), stats.end()});
      }
      tell_ts(ctl_msg::round_ack, {});
      done = true;
      return;
    }
    if (m.type == static_cast<std::uint16_t>(ctl_msg::rejoin_query)) {
      // The TS probes dropped peers at round boundaries; answering
      // re-admits this node from the next round.
      tell_ts(ctl_msg::rejoin_request, {});
      return;
    }
    if (m.type == hooks.crash_in) {
      maybe_crash(plan, self, fault.crash_in_rounds, "crash_in_round",
                  round_of(m));
    }
    if (m.type == hooks.configure) {
      configured = round_of(m);
      // Per-round reseed BEFORE the role consumes the RNG: every
      // incarnation — and the in-process reference — derives the identical
      // stream for (seed, node, round), which is what makes crash re-runs
      // byte-identical.
      rng = crypto::make_node_round_rng(plan.rng_seed, self, configured);
    }
    handle(m, configured);
    if (m.type == hooks.round_end && round_of(m) == configured) {
      if (fault.exit_after && configured == fault.exit_round + 1) {
        quit = true;  // injected dropout: exit cleanly between rounds
      }
      maybe_crash(plan, self, fault.crash_after_rounds, "crash_after_round",
                  configured, &net);
    }
  });
  // Announce that this node serves: the TS starts no round before every
  // peer has, and a restarted node re-admits itself this way (on a cold
  // start the TS's re-admission of an existing member is a no-op).
  tell_ts(ctl_msg::rejoin_request, {});
  net.run_until([&] { return done || quit; }, serve_deadline_ms(plan));
  net.flush_sends();
}

// -- DC collection -----------------------------------------------------------

/// Minimal event_sink adapter: forwards ingest spans to a callback. Used
/// to interpose the replay buffer between the relay aggregator and the
/// real DC sink (the aggregator only ever calls ingest()).
class callback_sink final : public core::event_sink {
 public:
  explicit callback_sink(
      std::function<void(const tor::event*, std::size_t)> fn)
      : fn_{std::move(fn)} {}

  void observe(const tor::event& ev) override { fn_(&ev, 1); }
  void ingest(const tor::event* evs, std::size_t n) override { fn_(evs, n); }
  void set_shards(std::size_t) override {}
  [[nodiscard]] std::size_t shards() const noexcept override { return 1; }
  void set_thread_pool(std::shared_ptr<util::thread_pool>) override {}
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return 0;
  }

 private:
  std::function<void(const tor::event*, std::size_t)> fn_;
};

/// The collection path both DC roles share: the DC's ingest plane, the
/// plan's event cursor, opened once for the whole schedule, the relay
/// plane it may detour through, the replay buffer for re-driven rounds, and
/// the dc_stats payload. Synthetic workloads have no cursor and stream
/// nothing.
///
/// The cursor consumes its event stream monotonically, so a re-driven
/// round (durable TS retry) cannot re-pull its window from the source —
/// the last streamed window is buffered and replayed verbatim instead. A
/// restarted DC holds a rebuilt cursor: asking it for the current window
/// auto-drops the already-processed prefix (events outside the requested
/// window are counted-but-dropped), which re-positions the stream without
/// any bookkeeping.
///
/// With a relay plane attached (workload relays), the window detours
/// through the simulated fleet: cursor -> route() onto the per-relay
/// stats agents -> per-relay .pub publish -> aggregator merge -> sink.
/// The buffer then holds the POST-aggregation merged span, so a durable
/// retry re-ingests identical bytes without re-publishing.
class dc_collection {
 public:
  template <class data_collector>
  dc_collection(const deployment_plan& plan, net::node_id self,
                data_collector& dc, std::shared_ptr<util::thread_pool> pool)
      : plan_{plan}, self_{self}, sched_{round_schedule_of(plan)} {
    if (!is_event_workload(plan)) return;
    configure_dc(plan, dc, std::move(pool));
    const std::size_t dc_index = dc_index_of(plan, self);
    cursor_.emplace(plan, dc_index);
    if (plan.workload.kind == workload_kind::relays) {
      const std::size_t dcs = plan.ids_with(plan.node(self).role).size();
      plane_.emplace(plan.workload.relay_count / dcs, plan.sample_prob,
                     relay::sampling_seed_of(plan.rng_seed),
                     plan.tally_path + ".pub.d/dc-" + std::to_string(dc_index));
    }
  }

  /// Round `round_id`'s collection phase (1-based): the injected delay, if
  /// any, then the round's window into `dc`. The workload is part of the
  /// plan, so every process — and the in-process reference round — feeds
  /// the identical sequence.
  void collect(std::uint32_t round_id, core::event_sink& dc,
               const fault_spec& fault) {
    const std::size_t index = round_id - 1;
    if (fault.delay && fault.delay_round == index) {
      std::this_thread::sleep_for(std::chrono::milliseconds{fault.delay_ms});
    }
    if (!cursor_.has_value()) return;
    const std::size_t replayed =
        replay(round_window_for(plan_, sched_, index), index, dc);
    if (round_id >= plan_.schedule_rounds) {
      cursor_->drain();  // trailing gap / feeder shutdown bytes
    }
    log_line{log_level::info}
        << "DC " << self_ << " round " << round_id << ": replayed "
        << replayed << " events (" << dc.events_observed()
        << " counted to date, " << cursor_->dropped_outside_windows()
        << " dropped outside windows)";
  }

  /// The privacy-safe per-DC accounting a DC ships to the TS during the
  /// completion handshake: `key value...` lines (never measurement data).
  /// The TS prefixes each with `dc_stats <id> ` in the .summary sidecar —
  /// this is where workload_cursor::dropped_outside_windows() finally
  /// surfaces, and where a relay fleet's aggregation accounting lands.
  /// Null for synthetic workloads.
  [[nodiscard]] std::function<std::string()> stats() {
    if (!cursor_.has_value()) return nullptr;
    return [this] {
      std::ostringstream out;
      out << "window_dropped " << cursor_->dropped_outside_windows() << "\n";
      out << "stream_failed " << (cursor_->stream_failed() ? 1 : 0) << "\n";
      if (plane_.has_value()) {
        const relay::aggregate_stats& t = plane_->totals();
        out << "relay_fleet " << plane_->relays() << " windows "
            << t.windows_ingested << " events " << t.events_ingested
            << " observed " << t.observed << " sampled " << t.sampled
            << " missing " << t.missing << " duplicates " << t.duplicates
            << " late " << t.late << " late_dropped " << t.late_dropped
            << " rejected " << t.rejected << "\n";
      }
      return out.str();
    };
  }

 private:
  std::size_t replay(const round_window& w, std::size_t index,
                     core::event_sink& sink) {
    const bool buffering = plan_.durable();
    if (buffering && index == last_index_) {
      if (!buffer_.empty()) sink.ingest(buffer_.data(), buffer_.size());
      return buffer_.size();
    }
    if (last_index_ != k_none && index <= last_index_) {
      log_line{log_level::warn}
          << "DC replay: window " << index
          << " already consumed and not buffered; skipping";
      return 0;
    }
    buffer_.clear();
    const auto tee = [&](const tor::event* evs, std::size_t k) {
      if (buffering) buffer_.insert(buffer_.end(), evs, evs + k);
      sink.ingest(evs, k);
    };
    std::size_t n = 0;
    if (plane_.has_value()) {
      cursor_->stream_window(w.start, w.end,
                             [&](const tor::event* evs, std::size_t k) {
                               plane_->route(evs, k);
                             });
      callback_sink merged{tee};
      n = plane_->close_window(index, merged);
    } else {
      n = cursor_->stream_window(w.start, w.end, tee);
    }
    last_index_ = index;
    return n;
  }

  static constexpr std::size_t k_none = static_cast<std::size_t>(-1);
  const deployment_plan& plan_;
  net::node_id self_;
  core::measurement_schedule sched_;
  std::optional<workload_cursor> cursor_;
  std::optional<relay::relay_plane> plane_;
  std::size_t last_index_ = k_none;
  std::vector<tor::event> buffer_;
};

// -- tally-server rounds -----------------------------------------------------

/// One phase of a protocol round as the TS runs it: `start` kicks it
/// off (may be empty) and `done` says it completed. A DC-gated phase
/// carries a straggler rule: `missing` names the DCs that have not
/// finished it. On the final attempt with a grace configured, those DCs
/// are excluded once the grace runs out and `salvage` (may be empty) goes
/// on with what made it.
struct round_phase {
  std::function<void()> start;
  std::function<bool()> done;
  std::function<bool(net::node_id)> missing;
  std::function<void()> salvage;
  /// Whether the final attempt waits for `done` on the full deadline when
  /// no grace is configured; false where the next phase's wait covers it.
  bool strict_wait = true;
};

/// The per-protocol side of the TS: how to drive its tally server through
/// one round, plus the membership and tally accessors drive_ts_rounds
/// needs.
struct ts_adapter {
  const char* protocol = "";  // the .summary's protocol line
  std::function<void(const net::message&)> handle;
  /// (Re)opens round `r`: positions the tally server and configures peers.
  std::function<void(std::uint32_t r)> begin;
  std::vector<round_phase> phases;
  std::function<void(net::node_id)> exclude;
  std::function<void(net::node_id)> readmit;
  std::function<const std::vector<net::node_id>&()> members;
  std::function<const std::set<net::node_id>&()> reporting;
  /// The round's tally bytes; throws if the round never completed (the
  /// node then exits nonzero and the orchestrator reports the failure).
  std::function<std::string()> tally;
};

/// The adapter entries both tally servers spell the same way; `open_round`
/// sends the protocol's configures once the round counter is positioned.
template <class tally_server>
[[nodiscard]] ts_adapter common_adapter(tally_server& ts, const char* protocol,
                                        std::function<void()> open_round) {
  ts_adapter a;
  a.protocol = protocol;
  a.begin = [&ts, open_round = std::move(open_round)](std::uint32_t r) {
    ts.resume_at_round(r);
    open_round();
  };
  a.handle = [&ts](const net::message& m) { ts.handle_message(m); };
  a.exclude = [&ts](net::node_id id) { ts.exclude_dc(id); };
  a.readmit = [&ts](net::node_id id) { ts.readmit_dc(id); };
  a.members = [&ts]() -> const std::vector<net::node_id>& {
    return ts.data_collectors();
  };
  a.reporting = [&ts]() -> const std::set<net::node_id>& {
    return ts.reporting_dcs();
  };
  return a;
}

/// The phase both protocols gate on DC reports: done once every member
/// reported; the stragglers are the members that have not.
template <class tally_server>
[[nodiscard]] round_phase report_phase(tally_server& ts) {
  round_phase p;
  p.done = [&ts] {
    return ts.reporting_dcs().size() >= ts.data_collectors().size();
  };
  p.missing = [&ts](net::node_id id) {
    return !ts.reporting_dcs().contains(id);
  };
  return p;
}

/// PSC rounds: setup -> report -> result. DCs replay their round window
/// (or insert their plan-derived items) immediately after handling
/// dc_configure; per-channel FIFO guarantees the report request is
/// processed only after that.
[[nodiscard]] ts_adapter psc_rounds(psc::tally_server& ts,
                                    const deployment_plan& plan) {
  ts_adapter a = common_adapter(ts, "psc",
                                [&ts, &plan] { ts.begin_round(plan.round); });
  round_phase setup;
  setup.done = [&ts] { return ts.setup_complete(); };
  // Stragglers past the grace are dropped from the deployment; the mix
  // starts on the tables that made it (the union just excludes the dead
  // DCs' observations). Without a grace the result wait covers the reports.
  round_phase report = report_phase(ts);
  report.start = [&ts] { ts.request_reports(); };
  report.salvage = [&ts] {
    if (!ts.reporting_dcs().empty()) ts.force_mixing();
  };
  report.strict_wait = false;
  round_phase result;
  result.done = [&ts] { return ts.result_ready(); };
  a.phases = {setup, report, result};
  a.tally = [&ts] {
    return serialize_psc_tally(ts.raw_count(), ts.params().bins,
                               ts.total_noise_bits());
  };
  return a;
}

/// PrivCount rounds: ready -> collect -> reveal.
[[nodiscard]] ts_adapter privcount_rounds(privcount::tally_server& ts,
                                          net::tcp_net& net,
                                          const deployment_plan& plan) {
  ts_adapter a = common_adapter(ts, "privcount", [&ts, &plan] {
    ts.begin_round(plan.counters, plan.privacy);
  });
  round_phase ready;
  ready.done = [&ts] { return ts.all_dcs_ready(); };
  ready.missing = [&ts](net::node_id id) {
    return !ts.ready_dcs().contains(id);
  };
  // The TS can stop immediately after starting: both control messages ride
  // the same TS->DC channel, and each DC replays its round window inside
  // the start_collection handler (see run_node), so per-channel FIFO
  // guarantees the stop is processed only after the replay finished.
  round_phase collect = report_phase(ts);
  collect.start = [&ts] {
    ts.start_collection();
    ts.stop_collection();
  };
  // The reveal names exactly the DCs that reported, so dropping the
  // stragglers keeps the blinds cancelling; they are excluded from later
  // rounds too. A total DC outage leaves nothing to degrade to (only the
  // grace has been spent): the salvage waits out the full deadline, failing
  // the round rather than publishing an all-zero tally.
  collect.salvage = [&ts, &net, &plan, done = collect.done] {
    if (ts.reporting_dcs().empty()) net.run_until(done, plan.round_deadline_ms);
  };
  round_phase reveal;
  reveal.start = [&ts] { ts.request_reveal(); };
  reveal.done = [&ts] { return ts.results_ready(); };
  a.phases = {ready, collect, reveal};
  a.tally = [&ts] { return serialize_privcount_tally(ts.results()); };
  return a;
}

/// Excludes every current DC that `still_missing` reports as absent,
/// keeping at least one: with the whole DC population gone there is no
/// degraded round to salvage — the phase deadline then fails the round
/// with a clear timeout instead of an exclusion crash.
void exclude_stragglers(const ts_adapter& proto,
                        const std::function<bool(net::node_id)>& still_missing,
                        std::set<net::node_id>& dropped) {
  // A copy: exclude() mutates the live DC list.
  const std::vector<net::node_id> current = proto.members();
  std::size_t remaining = current.size();
  for (const auto id : current) {
    if (!still_missing(id)) continue;
    if (remaining <= 1) {
      log_line{log_level::warn}
          << "TS: every remaining DC missed the grace; keeping DC " << id
          << " and waiting out the round deadline";
      break;
    }
    proto.exclude(id);
    dropped.insert(id);
    --remaining;
  }
}

/// Runs one attempt of a round's phases; true when the round completed.
/// A recovery attempt (not `last`) fails fast on any missing peer so the
/// whole round is re-driven — per-round determinism makes the retry
/// byte-identical, so waiting out a restart beats excluding data. Every
/// phase but the closing one gets `phase_grace`; the closing phase waits on
/// CP/SK work and keeps the full deadline. The final (or only) attempt is
/// the classic grace-and-exclude path, adding stragglers to `dropped`.
[[nodiscard]] bool run_round_attempt(net::tcp_net& net,
                                     const deployment_plan& plan,
                                     const ts_adapter& proto, bool last,
                                     int phase_grace,
                                     std::set<net::node_id>& dropped) {
  for (std::size_t i = 0; i < proto.phases.size(); ++i) {
    const round_phase& p = proto.phases[i];
    if (p.start != nullptr) p.start();
    if (!last) {
      const bool closing = i + 1 == proto.phases.size();
      if (!run_with_grace(net, p.done,
                          closing ? plan.round_deadline_ms : phase_grace)) {
        return false;
      }
    } else if (p.missing != nullptr && plan.dc_grace_ms > 0) {
      if (!run_with_grace(net, p.done, plan.dc_grace_ms)) {
        exclude_stragglers(proto, p.missing, dropped);
        if (p.salvage != nullptr) p.salvage();
      }
    } else if (p.strict_wait) {
      net.run_until(p.done, plan.round_deadline_ms);
    }
  }
  return proto.phases.back().done();
}

/// Drives the plan's whole round schedule through one protocol's tally
/// server: resume from the op-log, the scheduled churn, the attempt/retry
/// loop with rejoin admission, the round record and its commit, then the
/// DONE/ACK completion handshake.
[[nodiscard]] node_result drive_ts_rounds(net::tcp_net& net,
                                          tolerant_transport& out,
                                          const deployment_plan& plan,
                                          net::node_id self,
                                          const fault_spec& fault,
                                          const ts_adapter& proto) {
  ts_state state = load_ts_state(plan, self);
  std::set<net::node_id> acked;  // peers that acked ROUND_DONE
  bool finishing = false;        // ROUND_DONE is out
  std::set<net::node_id> rejoin_pending;  // peers that announced themselves
  std::map<net::node_id, std::string> dc_stats_payloads;
  net.register_node(self, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(ctl_msg::round_ack)) {
      acked.insert(m.from);
      return;
    }
    if (m.type == static_cast<std::uint16_t>(ctl_msg::dc_stats)) {
      dc_stats_payloads[m.from] =
          std::string{m.payload.begin(), m.payload.end()};
      return;
    }
    if (m.type == static_cast<std::uint16_t>(ctl_msg::rejoin_request)) {
      // A peer that announces itself after ROUND_DONE went out is a new
      // incarnation, and its predecessor may have died holding it.
      if (finishing) send_round_done(out, self, m.from);
      rejoin_pending.insert(m.from);
      return;
    }
    proto.handle(m);
  });

  const std::uint32_t rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  const std::uint32_t max_attempts = plan.durable() ? k_ts_max_attempts : 1;
  // Grace for the fail-fast recovery attempts: a plan without an explicit
  // grace still should not burn the whole (2-minute default) phase deadline
  // before retrying a crashed peer — the final attempt keeps the full one.
  const int phase_grace = plan.dc_grace_ms > 0
                              ? plan.dc_grace_ms
                              : std::min(plan.round_deadline_ms, 10'000);
  // Every DC of the plan, in plan order: the fresh tally server drives them
  // all.
  const std::vector<net::node_id> dc_ids = proto.members();
  if (state.next_round > 1) {
    // Resume: re-apply the exclusions the previous incarnation held — the
    // DCs the op-log records as dropped and those scheduled dark in the
    // last committed round — before the first resumed round.
    for (const auto id : state.dropped) proto.exclude(id);
    for (const auto k : scheduled_dark_dcs(plan, state.next_round - 2)) {
      proto.exclude(dc_ids[k]);
    }
  }
  // The startup barrier: no phase timer of the first round this TS owes
  // runs while a peer is still starting (a DC materializing its workload,
  // say). Waits at most one round deadline for every peer it has not
  // dropped. A durable TS also asks them: if it is a restarted
  // incarnation, even one that committed nothing yet, their startup
  // announcements went to its predecessor.
  std::vector<net::node_id> peers;
  for (const auto& n : plan.nodes) {
    if (n.id != self && !state.dropped.contains(n.id)) peers.push_back(n.id);
  }
  if (state.next_round <= rounds) {
    await_announced(out, net, self, peers, plan.durable(), rejoin_pending,
                    plan.round_deadline_ms);
  }
  for (std::uint32_t r = state.next_round; r <= rounds; ++r) {
    const std::set<net::node_id> dropped_before = state.dropped;
    std::set<net::node_id> rejoined_now;
    std::set<net::node_id> churned_out;
    // Scenario-scheduled churn: the rejoin machinery driven by the plan
    // instead of by missed graces.
    const churn_transition churn = scheduled_churn(plan, r - 1);
    for (const auto k : churn.readmit) {
      proto.readmit(dc_ids[k]);
      rejoined_now.insert(dc_ids[k]);
    }
    for (const auto k : churn.exclude) {
      proto.exclude(dc_ids[k]);
      churned_out.insert(dc_ids[k]);
    }
    std::uint32_t attempt = 0;
    bool done = false;
    for (; attempt < max_attempts && !done; ++attempt) {
      if (attempt > 0) {
        log_line{log_level::warn}
            << "TS: round " << r << " attempt " << (attempt - 1)
            << " failed; draining and retrying";
        // Quiesce: let the failed attempt's in-flight messages land now,
        // while the round guards still recognize (and drop or dedup) them,
        // instead of racing the retry.
        (void)run_with_grace(net, [] { return false; }, k_retry_drain_ms);
      }
      admit_rejoiners(out, net, plan, self, proto.readmit, state.dropped,
                      rejoin_pending, rejoined_now);
      proto.begin(r);
      maybe_crash(plan, self, fault.crash_in_rounds, "crash_in_round", r);
      done = run_round_attempt(net, plan, proto, attempt + 1 == max_attempts,
                               phase_grace, state.dropped);
    }

    round_record rec;
    rec.round = r;
    rec.retries = attempt - 1;
    rec.dropped = state.dropped;
    for (const auto id : dc_ids) {
      dc_counters c;
      (proto.reporting().contains(id) ? c.reported : c.missed) = 1;
      if ((state.dropped.contains(id) && !dropped_before.contains(id)) ||
          churned_out.contains(id)) {
        c.excluded = 1;
      }
      if (rejoined_now.contains(id)) c.rejoined = 1;
      rec.delta[id] = c;
    }
    rec.tally = proto.tally();
    commit_round(state, plan, std::move(rec), proto.protocol);
    maybe_crash(plan, self, fault.crash_after_rounds, "crash_after_round", r);
  }

  node_result result;
  result.tally = serialize_multiround_tally(state.tallies);
  finishing = true;
  finish_round_as_ts(out, net, plan, self, state.dropped, acked);
  // Each DC's DC_STATS message rides the same channel as its ROUND_ACK, so
  // once every surviving ack is in, every surviving DC's stats are too.
  util::write_file_atomic(
      plan.tally_path + ".summary",
      as_bytes(ts_summary(state, proto.protocol, dc_stats_payloads)));
  return result;
}

}  // namespace

node_result run_node(const deployment_plan& plan, net::node_id self) {
  const node_spec& spec = plan.node(self);
  net::tcp_options opts;
  if (plan.dc_grace_ms > 0) {
    // Fault-tolerant deployments give up on unreachable peers on the same
    // timescale they exclude stragglers — otherwise a dead DC's channel
    // would stall the final flush for the full (15 s) connect deadline.
    opts.connect_deadline_ms = static_cast<int>(std::clamp<std::int64_t>(
        2ll * plan.dc_grace_ms, 2'000, 60'000));
  }
  // Durable deployments expect peers to die and come back: a broken
  // channel re-arms on the next send instead of rejecting it forever.
  opts.repair_broken = plan.durable();
  if (plan.durable()) {
    std::filesystem::create_directories(plan.durable_dir);
  }
  net::tcp_net net{plan.endpoints(), opts};
  crypto::deterministic_rng rng = crypto::make_node_rng(plan.rng_seed, self);
  const net::node_id ts_id = plan.tally_server_id();
  const fault_spec fault = fault_for(self);
  // Every PSC role runs its batch crypto on one pool that fills the host.
  // The bytes never depend on its size (see crypto::batch_engine).
  const auto host_pool = [] {
    return std::make_shared<util::thread_pool>(util::host_workers());
  };

  switch (spec.role) {
    case node_role::psc_ts: {
      tolerant_transport out{net};
      psc::tally_server ts{self, out, plan.ids_with(node_role::psc_dc),
                           plan.ids_with(node_role::psc_cp)};
      ts.set_thread_pool(host_pool());
      return drive_ts_rounds(net, out, plan, self, fault, psc_rounds(ts, plan));
    }
    case node_role::privcount_ts: {
      tolerant_transport out{net};
      privcount::tally_server ts{self, out,
                                 plan.ids_with(node_role::privcount_dc),
                                 plan.ids_with(node_role::privcount_sk)};
      ts.set_noise_enabled(plan.privcount_noise_enabled);
      return drive_ts_rounds(net, out, plan, self, fault,
                             privcount_rounds(ts, net, plan));
    }
    case node_role::psc_cp: {
      psc::computation_party cp{self, ts_id, net, rng};
      cp.set_thread_pool(host_pool());
      serve_peer(net, plan, self, fault, rng,
                 peer_hooks{psc::msg_type::cp_configure,
                            psc::msg_type::cp_configure,
                            psc::msg_type::mix_pass},
                 [&](const net::message& m, std::uint32_t) {
                   cp.handle_message(m);
                 });
      return {};
    }
    case node_role::privcount_sk: {
      privcount::share_keeper sk{self, ts_id, net};
      serve_peer(net, plan, self, fault, rng,
                 peer_hooks{privcount::msg_type::configure,
                            privcount::msg_type::configure,
                            privcount::msg_type::sk_reveal},
                 [&](const net::message& m, std::uint32_t) {
                   sk.handle_message(m);
                 });
      return {};
    }
    case node_role::psc_dc: {
      psc::data_collector dc{self, ts_id, net, rng};
      // Table setup and the report run on the DC's pool for every workload
      // kind, an event workload's ingest shards too. dc_ingest_threads
      // sizes it when set.
      std::shared_ptr<util::thread_pool> pool = make_ingest_pool(plan);
      if (pool == nullptr) pool = host_pool();
      dc.set_thread_pool(pool);
      dc_collection feed{plan, self, dc, pool};
      const peer_hooks h{psc::msg_type::dc_configure,
                         psc::msg_type::dc_configure,
                         psc::msg_type::report_request};
      serve_peer(
          net, plan, self, fault, rng, h,
          [&](const net::message& m, std::uint32_t round) {
            dc.handle_message(m);
            if (m.type != h.configure) return;
            // Collection phase, run inside the configure handler:
            // per-channel FIFO guarantees the TS's report request is
            // processed only after the full window landed in the
            // oblivious table.
            feed.collect(round, dc, fault);
            if (is_event_workload(plan)) return;
            for (const std::string& item : items_for_dc(plan, self)) {
              dc.insert_item(item);
            }
          },
          feed.stats());
      return {};
    }
    case node_role::privcount_dc: {
      privcount::data_collector dc{self, ts_id, net, rng};
      dc_collection feed{plan, self, dc, make_ingest_pool(plan)};
      const peer_hooks h{privcount::msg_type::configure,
                         privcount::msg_type::start_collection,
                         privcount::msg_type::stop_collection};
      serve_peer(
          net, plan, self, fault, rng, h,
          [&](const net::message& m, std::uint32_t round) {
            dc.handle_message(m);
            // Collection phase: replay this round's window while the DC is
            // collecting. The TS's stop_collection rides the same channel
            // and is processed only after this handler returns (FIFO), so
            // the report includes every replayed event. A start for any
            // other round is stale control.
            if (m.type == static_cast<std::uint16_t>(
                              privcount::msg_type::start_collection) &&
                round_of(m) == round) {
              feed.collect(round, dc, fault);
            }
          },
          feed.stats());
      return {};
    }
  }
  throw invariant_error{"unhandled node role"};
}

std::string serialize_psc_tally(std::uint64_t raw_count, std::uint64_t bins,
                                std::uint64_t total_noise_bits) {
  const psc::cardinality_estimate est =
      psc::estimate_cardinality(raw_count, bins, total_noise_bits);
  std::ostringstream out;
  out << "tormet-tally-v1\n";
  out << "protocol psc\n";
  out << "raw_count " << raw_count << "\n";
  out << "bins " << bins << "\n";
  out << "noise_bits " << total_noise_bits << "\n";
  out << "estimate " << format_double(est.cardinality) << "\n";
  return out.str();
}

std::string serialize_privcount_tally(
    const std::vector<privcount::counter_result>& results) {
  std::ostringstream out;
  out << "tormet-tally-v1\n";
  out << "protocol privcount\n";
  for (const auto& r : results) {
    out << "counter " << r.name << " " << r.value << " " << format_double(r.sigma)
        << "\n";
  }
  return out.str();
}

std::string serialize_multiround_tally(
    const std::vector<std::string>& round_tallies) {
  expects(!round_tallies.empty(), "no round tallies to serialize");
  if (round_tallies.size() == 1) return round_tallies.front();
  std::ostringstream out;
  out << "tormet-tally-multiround-v1\n";
  out << "rounds " << round_tallies.size() << "\n";
  for (std::size_t i = 0; i < round_tallies.size(); ++i) {
    out << "round " << (i + 1) << "\n" << round_tallies[i];
  }
  return out.str();
}

}  // namespace tormet::cli
