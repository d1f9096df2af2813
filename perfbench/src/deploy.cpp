#include "perfbench/src/deploy.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "src/cli/orchestrator.h"
#include "src/cli/workload_source.h"
#include "src/tor/trace_file.h"
#include "src/util/check.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace tormet;

constexpr int k_deploy_timeout_ms = 120'000;

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  expects(fd >= 0, "cannot open a setup file for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  expects(rc == 0, "fsync of a setup file failed");
}

[[nodiscard]] double children_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Watches `dir` for renames onto `name` and records when each landed —
/// the TS's per-round tally commit, seen from outside the deployment.
class commit_watcher {
 public:
  commit_watcher(const std::string& dir, std::string name)
      : name_{std::move(name)}, fd_{::inotify_init1(IN_NONBLOCK | IN_CLOEXEC)} {
    expects(fd_ >= 0, "inotify_init1 failed");
    expects(::inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) >= 0,
            "inotify_add_watch failed");
    thread_ = std::thread{[this] { loop(); }};
  }
  ~commit_watcher() {
    stop();
    ::close(fd_);
  }
  commit_watcher(const commit_watcher&) = delete;
  commit_watcher& operator=(const commit_watcher&) = delete;

  /// Stops watching and returns the commit times seen.
  std::vector<bench_clock::time_point> stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return commits_;
  }

 private:
  void loop() {
    alignas(inotify_event) char buf[4096];
    while (!stop_) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 5) <= 0) continue;
      const bench_clock::time_point now = bench_clock::now();
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      constexpr auto k_header = static_cast<ssize_t>(sizeof(inotify_event));
      for (ssize_t off = 0; off + k_header <= n;) {
        inotify_event ev{};
        std::memcpy(&ev, buf + off, sizeof ev);
        const char* name = buf + off + sizeof ev;
        if (ev.len > 0 && name_ == name) commits_.push_back(now);
        off += static_cast<ssize_t>(sizeof ev + ev.len);
      }
    }
  }

  std::string name_;
  int fd_;
  std::atomic<bool> stop_{false};
  std::vector<bench_clock::time_point> commits_;
  std::thread thread_;
};

/// `key value key value ...` pairs after a line's leading words.
[[nodiscard]] std::uint64_t field(const std::string& line,
                                  const std::string& key) {
  std::istringstream in{line};
  std::string word;
  while (in >> word) {
    if (word != key) continue;
    std::uint64_t value = 0;
    if (in >> value) return value;
    return 0;
  }
  return 0;
}

[[nodiscard]] bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

[[nodiscard]] std::string read_text(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

[[nodiscard]] std::string number_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

prepared_inputs prepare_inputs(const workload& w, const std::string& dir) {
  prepared_inputs in;
  in.dir = fs::absolute(dir).string();
  const bench_clock::time_point t0 = bench_clock::now();
  expects(fs::create_directories(in.dir), "setup directory already exists");
  if (w.traces.has_value()) {
    std::vector<std::vector<tor::event>> events =
        tormet::workload::generate_trace_events(*w.traces);
    const bench_clock::time_point t1 = bench_clock::now();
    std::vector<std::string> files;
    for (std::size_t k = 0; k < events.size(); ++k) {
      files.push_back(in.dir + "/" + tor::trace_file_name(k));
      tor::trace_writer out{files.back()};
      for (const auto& ev : events[k]) out.write(ev);
      out.close();
      in.events += out.events_written();
    }
    events = {};
    const bench_clock::time_point t2 = bench_clock::now();
    for (const auto& f : files) fsync_path(f);
    fsync_path(in.dir);
    const bench_clock::time_point t3 = bench_clock::now();
    in.generate_s = seconds_between(t0, t1);
    in.trace_write_s = seconds_between(t1, t2);
    in.sync_s = seconds_between(t2, t3);
  } else {
    // DC processes materialize these events themselves; the benchmark
    // renders them once too, for the observed-event check.
    const auto events = cli::materialize_plan_events(w.plan);
    for (const auto& slice : *events) in.events += slice.size();
    in.generate_s = seconds_between(t0, bench_clock::now());
  }
  cli::deployment_plan plan = w.plan;
  if (w.traces.has_value()) plan.workload.trace_dir = in.dir;
  cli::assign_free_ports(plan);
  cli::save_plan(plan, in.dir + "/plan.cfg");
  in.total_s = seconds_between(t0, bench_clock::now());
  return in;
}

cli::deployment_plan fresh_plan(const workload& w, const prepared_inputs& inputs,
                                const std::string& workdir) {
  const std::string dir = fs::absolute(workdir).string();
  expects(fs::create_directories(dir), "deployment workdir already exists");
  cli::deployment_plan plan = w.plan;
  for (auto& n : plan.nodes) n.port = 0;
  plan.tally_path = dir + "/tally.out";
  if (plan.durable()) plan.durable_dir = dir + "/durable";
  if (w.traces.has_value()) plan.workload.trace_dir = inputs.dir;
  cli::assign_free_ports(plan);
  return plan;
}

distributed_run run_distributed(const cli::deployment_plan& plan,
                                const std::string& workdir, bool watch_commits) {
  // The deployment runs in a freshly exec'd launcher process: a forked
  // node's peak RSS includes its parent's resident pages until exec, so
  // forking nodes from this (large) process would measure the benchmark,
  // not the nodes. The launcher also keeps RUSAGE_CHILDREN to nodes only.
  distributed_run out;
  const std::string plan_path = workdir + "/launch-plan.cfg";
  const std::string result_path = workdir + "/launch.result";
  cli::save_plan(plan, plan_path);
  std::optional<commit_watcher> watcher;
  if (watch_commits) watcher.emplace(workdir, "tally.out");
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  const char* argv[] = {self.c_str(), "--launch", plan_path.c_str(),
                        result_path.c_str(), nullptr};
  pid_t pid = -1;
  expects(::posix_spawn(&pid, self.c_str(), nullptr, nullptr,
                        const_cast<char* const*>(argv), environ) == 0,
          "cannot spawn the deployment launcher");
  int status = 0;
  expects(::waitpid(pid, &status, 0) == pid, "waitpid on the launcher failed");
  std::vector<bench_clock::time_point> commits;
  if (watcher.has_value()) commits = watcher->stop();

  std::ifstream in{result_path};
  std::string key;
  std::int64_t t0_ns = 0;
  while (in >> key) {
    if (key == "schedule_s") {
      in >> out.schedule_s;
    } else if (key == "cpu_s") {
      in >> out.cpu_s;
    } else if (key == "rss_kib") {
      double kib = 0;
      in >> kib;
      out.rss_mb = kib / 1024.0;
    } else if (key == "t0_ns") {
      in >> t0_ns;
    } else if (key == "error") {
      std::getline(in >> std::ws, out.error);
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || t0_ns == 0) {
    if (out.error.empty()) out.error = "deployment launcher failed";
    return out;
  }
  if (out.error.empty()) {
    out.tally = read_text(plan.tally_path);
    out.summary = read_text(plan.tally_path + ".summary");
  }
  const bench_clock::time_point t0{std::chrono::nanoseconds{t0_ns}};
  for (const auto& c : commits) out.commits_s.push_back(seconds_between(t0, c));
  return out;
}

int launch_main(const std::string& plan_path, const std::string& result_path) {
  const cli::deployment_plan plan = cli::load_plan(plan_path);
  const std::string workdir = fs::path{plan_path}.parent_path().string();
  std::string error;
  const double cpu0 = children_cpu_s();
  const bench_clock::time_point t0 = bench_clock::now();
  try {
    (void)cli::run_distributed_round(plan, PERFBENCH_NODE_BIN, workdir,
                                     k_deploy_timeout_ms);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const bench_clock::time_point t1 = bench_clock::now();
  const double cpu_s = children_cpu_s() - cpu0;
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  std::ofstream out{result_path, std::ios::trunc};
  out << "schedule_s " << number_text(seconds_between(t0, t1)) << "\n"
      << "cpu_s " << number_text(cpu_s) << "\n"
      << "rss_kib " << ru.ru_maxrss << "\n"
      << "t0_ns "
      << std::chrono::duration_cast<std::chrono::nanoseconds>(
             t0.time_since_epoch())
             .count()
      << "\n";
  for (char& c : error) {
    if (c == '\n') c = ' ';
  }
  if (!error.empty()) out << "error " << error << "\n";
  out.flush();
  return out.good() ? 0 : 1;
}

summary_totals parse_summary(const std::string& text) {
  summary_totals s;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "rounds ")) {
      s.rounds = field(line, "rounds");
    } else if (starts_with(line, "round_retries ")) {
      s.round_retries = field(line, "round_retries");
    } else if (starts_with(line, "excluded_now")) {
      std::istringstream ids{line.substr(std::strlen("excluded_now"))};
      std::string id;
      while (ids >> id) ++s.excluded_now;
    } else if (starts_with(line, "dc ")) {
      ++s.dc_lines;
      s.dc_reported += field(line, "reported");
      s.dc_missed += field(line, "missed");
      s.dc_excluded += field(line, "excluded");
    } else if (starts_with(line, "dc_stats ")) {
      s.window_dropped += field(line, "window_dropped");
      s.stream_failed += field(line, "stream_failed");
      if (line.find(" relay_fleet ") != std::string::npos) {
        ++s.relay_fleets;
        s.relay_observed += field(line, "observed");
        s.relay_faults += field(line, "missing") + field(line, "duplicates") +
                          field(line, "late_dropped") + field(line, "rejected");
      }
    }
  }
  return s;
}

std::uint64_t failed_dc_rounds(const workload& w, const distributed_run& run,
                               const std::string& reference,
                               std::uint64_t events,
                               std::vector<std::string>& why) {
  const std::uint64_t dcs = w.dc_count();
  const std::uint64_t rounds = w.rounds();
  const std::uint64_t all = w.dc_rounds();
  if (!run.error.empty()) {
    why.push_back("distributed run failed: " + run.error);
    return all;
  }
  if (run.tally != reference) {
    why.push_back("distributed tally differs from run_reference_round");
    return all;
  }
  const summary_totals s = parse_summary(run.summary);
  const auto whole = [&](const std::string& reason) {
    why.push_back(reason);
    return all;
  };
  if (s.rounds != rounds) {
    return whole("summary commits " + std::to_string(s.rounds) + " of " +
                 std::to_string(rounds) + " rounds");
  }
  if (s.dc_lines != dcs || s.excluded_now != 0) {
    return whole("summary does not list every DC as a member");
  }
  if (w.plan.workload.kind == cli::workload_kind::relays) {
    if (s.relay_fleets != dcs) return whole("summary lacks relay_fleet lines");
    if (s.relay_faults != 0) return whole("relay fleet booked faults");
    if (s.relay_observed != events) {
      return whole("relay fleet observed " + std::to_string(s.relay_observed) +
                   " events, materialized " + std::to_string(events));
    }
  }
  std::uint64_t failed = s.dc_missed + s.dc_excluded + s.round_retries * dcs +
                         s.stream_failed * rounds;
  if (s.dc_reported < all) failed = std::max(failed, all - s.dc_reported);
  if (failed > 0) {
    why.push_back("summary marks DC-rounds missed, excluded, retried or failed");
  }
  return std::min(failed, all);
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator{dir}) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace perfbench
