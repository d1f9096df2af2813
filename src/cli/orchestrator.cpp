#include "src/cli/orchestrator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "src/cli/node_runner.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/net/inproc.h"
#include "src/privcount/deployment.h"
#include "src/psc/deployment.h"
#include "src/relay/stats_agent.h"
#include "src/util/check.h"
#include "src/util/file_io.h"
#include "src/util/logging.h"
#include "src/workload/trace_gen.h"

namespace tormet::cli {

namespace {

using clock = std::chrono::steady_clock;

/// Verifies the plan follows the canonical node-id layout the in-process
/// deployments assign (TS=0, middle nodes 1..m, DCs m+1..m+n) so the
/// reference round's wiring matches the distributed one exactly.
void check_canonical_layout(const deployment_plan& plan, node_role mid,
                            node_role dc) {
  expects(plan.tally_server_id() == 0, "plan must place the TS at node id 0");
  const std::vector<net::node_id> mids = plan.ids_with(mid);
  const std::vector<net::node_id> dcs = plan.ids_with(dc);
  expects(!mids.empty() && !dcs.empty(), "plan is missing CP/SK or DC nodes");
  for (std::size_t i = 0; i < mids.size(); ++i) {
    expects(mids[i] == 1 + i, "CP/SK node ids must be 1..m in order");
  }
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    expects(dcs[i] == 1 + mids.size() + i, "DC node ids must follow the CPs/SKs");
  }
}

}  // namespace

void assign_free_ports(deployment_plan& plan) {
  // Keep every probe socket open until all ports are chosen, so the kernel
  // cannot hand the same ephemeral port out twice within one call.
  std::vector<int> probes;
  for (auto& n : plan.nodes) {
    if (n.port != 0) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    expects(fd >= 0, "socket() for port probing failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      throw net::transport_error{"port probing failed"};
    }
    n.port = ntohs(addr.sin_port);
    probes.push_back(fd);
  }
  for (const int fd : probes) ::close(fd);
}

std::string run_reference_round(const deployment_plan& plan) {
  // Socket-fed events exist only on the wire; they cannot be re-derived
  // from the plan, so there is nothing deterministic to check against.
  expects(plan.workload.kind != workload_kind::socket,
          "reference round cannot reproduce a socket-fed workload "
          "(use a trace workload for byte-identity checks)");
  const std::uint32_t rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  const core::measurement_schedule sched = round_schedule_of(plan);

  // Per-DC event cursors persist across all rounds, exactly like the node
  // processes' streams: one open source each, windowed by the schedule,
  // gap events counted-but-dropped. `generate` workloads materialize once
  // and share across cursors.
  std::vector<workload_cursor> cursors;
  // The reference round honors the plan's ingest-plane knobs too (one
  // pool shared across every DC, like a node process shares its workers
  // across shards) — bytes are knob-independent, but exercising the same
  // path keeps the reference fast at 16-DC population scale.
  const std::shared_ptr<util::thread_pool> ingest_pool =
      is_event_workload(plan) ? make_ingest_pool(plan) : nullptr;
  // One feed path for both protocols: each DC is a core::event_sink, each
  // cursor delivers its window as contiguous spans straight into ingest().
  //
  // A `relays` workload needs no file pipeline here: the per-DC aggregated
  // relay stream is an order-preserving sampled subsequence of the cursor
  // stream (relay seq numbers are assigned in route order and the
  // aggregator merges by them), so filtering each event through the same
  // sampling predicate reproduces the distributed bytes — and degenerates
  // to the plain cursor feed at sample_prob 1.0.
  const bool sampled_relays =
      plan.workload.kind == workload_kind::relays && plan.sample_prob < 1.0;
  const std::uint64_t sampling_seed = relay::sampling_seed_of(plan.rng_seed);
  std::vector<tor::event> kept;  // reused sampling buffer
  const auto feed_window = [&](auto& dep, std::uint32_t round_id) {
    const round_window w = round_window_for(plan, sched, round_id - 1);
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      core::event_sink& sink = dep.dc_at(i);
      if (sampled_relays) {
        cursors[i].stream_window(
            w.start, w.end, [&](const tor::event* evs, std::size_t n) {
              kept.clear();
              for (std::size_t j = 0; j < n; ++j) {
                if (relay::sample_event(evs[j], sampling_seed,
                                        plan.sample_prob)) {
                  kept.push_back(evs[j]);
                }
              }
              if (!kept.empty()) sink.ingest(kept.data(), kept.size());
            });
        continue;
      }
      cursors[i].stream_window(
          w.start, w.end,
          [&sink](const tor::event* evs, std::size_t n) { sink.ingest(evs, n); });
    }
  };
  // One schedule loop for both protocols. Each round first applies the
  // scenario-scheduled churn, the same transition the TS applies: a DC
  // whose dropout window covers round r is excluded from the protocol for
  // it (PrivCount blinding and PSC mixing both depend on the DC membership)
  // and re-admitted when its outage ends. `run_round(r)` then runs round r
  // and returns its tally.
  const auto run_schedule = [&](auto& dep, node_role dc_role,
                                const auto& run_round) {
    const std::vector<net::node_id> dc_ids = plan.ids_with(dc_role);
    if (is_event_workload(plan)) {
      // generate/scenario workloads materialize once, shared across cursors.
      const std::shared_ptr<const std::vector<std::vector<tor::event>>>
          shared = materialize_plan_events(plan);
      for (std::size_t i = 0; i < dc_ids.size(); ++i) {
        configure_dc_ingest(plan, dep.dc_at(i), ingest_pool);
        cursors.emplace_back(plan, i, shared);
      }
    }
    std::vector<std::string> tallies;
    for (std::uint32_t r = 1; r <= rounds; ++r) {
      const churn_transition churn = scheduled_churn(plan, r - 1);
      for (const auto k : churn.readmit) dep.ts().readmit_dc(dc_ids[k]);
      for (const auto k : churn.exclude) dep.ts().exclude_dc(dc_ids[k]);
      tallies.push_back(run_round(r));
    }
    return serialize_multiround_tally(tallies);
  };

  net::inproc_net bus;
  if (plan.protocol == "psc") {
    check_canonical_layout(plan, node_role::psc_cp, node_role::psc_dc);
    const std::vector<net::node_id> dc_ids = plan.ids_with(node_role::psc_dc);
    psc::deployment_config cfg;
    cfg.num_computation_parties = plan.ids_with(node_role::psc_cp).size();
    cfg.measured_relays.resize(dc_ids.size());
    for (std::size_t i = 0; i < dc_ids.size(); ++i) {
      cfg.measured_relays[i] = static_cast<tor::relay_id>(i);  // placeholders
    }
    cfg.round = plan.round;
    cfg.rng_seed = plan.rng_seed;
    psc::deployment dep{bus, cfg};
    if (is_event_workload(plan)) {
      dep.set_extractor(core::extractor_by_name(plan.psc_extractor));
    }
    return run_schedule(dep, node_role::psc_dc, [&](std::uint32_t r) {
      const psc::round_outcome out = dep.run_round([&] {
        if (is_event_workload(plan)) {
          feed_window(dep, r);
          return;
        }
        for (std::size_t i = 0; i < dc_ids.size(); ++i) {
          for (const std::string& item : items_for_dc(plan, dc_ids[i])) {
            dep.dc_at(i).insert_item(item);
          }
        }
      });
      return serialize_psc_tally(out.raw_count, out.bins, out.total_noise_bits);
    });
  }

  expects(plan.protocol == "privcount", "unknown protocol in plan");
  check_canonical_layout(plan, node_role::privcount_sk, node_role::privcount_dc);
  privcount::deployment_config cfg;
  cfg.num_share_keepers = plan.ids_with(node_role::privcount_sk).size();
  cfg.measured_relays.resize(plan.ids_with(node_role::privcount_dc).size());
  for (std::size_t i = 0; i < cfg.measured_relays.size(); ++i) {
    cfg.measured_relays[i] = static_cast<tor::relay_id>(i);
  }
  cfg.privacy = plan.privacy;
  cfg.noise_enabled = plan.privcount_noise_enabled;
  cfg.rng_seed = plan.rng_seed;
  privcount::deployment dep{bus, cfg};
  if (is_event_workload(plan)) {
    for (const auto& name : plan.instruments) {
      dep.add_instrument(core::instrument_by_name(name));
    }
  }
  return run_schedule(dep, node_role::privcount_dc, [&](std::uint32_t r) {
    return serialize_privcount_tally(
        dep.run_round(plan.counters, [&] { feed_window(dep, r); }));
  });
}

distributed_round_result run_distributed_round(const deployment_plan& plan,
                                               const std::string& node_binary,
                                               const std::string& workdir,
                                               int timeout_ms) {
  expects(!node_binary.empty(), "node binary path is empty");
  expects(::access(node_binary.c_str(), X_OK) == 0,
          "node binary is not executable");
  expects(!plan.tally_path.empty(), "plan needs a tally path");

  const std::string plan_path = workdir + "/plan.cfg";
  save_plan(plan, plan_path);

  struct child {
    net::node_id id = 0;
    pid_t pid = -1;
    int exit_code = -1;
    bool exited = false;
    int restarts = 0;
    bool restart_pending = false;
    clock::time_point restart_at{};
  };
  std::vector<child> children;
  children.reserve(plan.nodes.size());

  // Spawn (and later respawn) one node process. Respawns append to the
  // node's log so the pre-crash output survives for diagnosis.
  const auto spawn = [&](net::node_id id, bool append) -> pid_t {
    const std::string log_path = workdir + "/node-" + std::to_string(id) + ".log";
    const std::string node_arg = std::to_string(id);
    const pid_t pid = ::fork();
    expects(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: redirect stdout+stderr to the per-node log, then exec.
      // Only async-signal-safe calls below (the parent is multi-threaded).
      const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
      const int log_fd = ::open(log_path.c_str(), flags, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        if (log_fd > STDERR_FILENO) ::close(log_fd);
      }
      const char* argv[] = {node_binary.c_str(), "--config", plan_path.c_str(),
                            "--node", node_arg.c_str(), nullptr};
      ::execv(node_binary.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    return pid;
  };

  for (const auto& n : plan.nodes) {
    child c;
    c.id = n.id;
    c.pid = spawn(n.id, /*append=*/false);
    children.push_back(c);
  }

  // Supervisor policy: in a durable plan a child that dies with the crash
  // exit code is restarted (a TS replays its op-log, a peer rejoins); a cap
  // keeps a crash-looping binary from hanging the round forever.
  const int restart_delay_ms = [] {
    const char* env = std::getenv("TORMET_RESTART_DELAY_MS");
    return env != nullptr ? std::atoi(env) : 0;
  }();

  const auto kill_all = [&] {
    for (auto& c : children) {
      if (!c.exited && !c.restart_pending) ::kill(c.pid, SIGKILL);
    }
    for (auto& c : children) {
      if (!c.exited && !c.restart_pending) {
        int status = 0;
        ::waitpid(c.pid, &status, 0);
      }
      c.exited = true;
    }
  };

  const auto deadline = clock::now() + std::chrono::milliseconds{timeout_ms};
  bool failed = false;
  for (;;) {
    std::size_t running = 0;
    for (auto& c : children) {
      if (c.exited) continue;
      if (c.restart_pending) {
        // A crashed durable node waiting out its restart delay still counts
        // as running: the round is not over, and the deadline still guards
        // against a wedged deployment.
        if (clock::now() >= c.restart_at) {
          c.pid = spawn(c.id, /*append=*/true);
          c.restart_pending = false;
          ++c.restarts;
        }
        ++running;
        continue;
      }
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        c.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        if (c.exit_code == k_crash_exit_code && plan.durable() &&
            c.restarts < plan.max_restarts) {
          c.restart_pending = true;
          c.restart_at =
              clock::now() + std::chrono::milliseconds{restart_delay_ms};
          ++running;
          continue;
        }
        c.exited = true;
        if (c.exit_code != 0) failed = true;
      } else {
        ++running;
      }
    }
    if (failed) {
      kill_all();
      throw net::transport_error{
          "distributed round: a node process failed (see node-*.log under " +
          workdir + ")"};
    }
    if (running == 0) break;
    if (clock::now() >= deadline) {
      kill_all();
      throw net::transport_error{
          "distributed round: timeout after " + std::to_string(timeout_ms) +
          " ms (see node-*.log under " + workdir + ")"};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }

  distributed_round_result out;
  for (const auto& c : children) {
    out.nodes.push_back({c.id, c.exit_code, c.restarts});
  }
  std::optional<std::string> tally = util::read_file(plan.tally_path);
  if (!tally.has_value()) {
    throw precondition_error{"cannot read tally " + plan.tally_path};
  }
  out.tally = *std::move(tally);
  out.summary = util::read_file(plan.tally_path + ".summary").value_or("");
  return out;
}

std::string make_round_workdir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = std::string{tmp != nullptr ? tmp : "/tmp"} +
                     "/tormet-round-XXXXXX";
  std::vector<char> buf{tmpl.begin(), tmpl.end()};
  buf.push_back('\0');
  expects(::mkdtemp(buf.data()) != nullptr, "mkdtemp failed");
  return std::string{buf.data()};
}

std::string sibling_node_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string path{buf};
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "";
  path = path.substr(0, slash) + "/tormet_node";
  return ::access(path.c_str(), X_OK) == 0 ? path : "";
}

}  // namespace tormet::cli
