// Shared fixtures for the tests that fork/exec real tormet_node processes:
// where the node binary is, a scratch round directory removed when the test
// ends, and free loopback ports for a socket workload's event listeners.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cli/orchestrator.h"

namespace tormet::cli {

/// The node binary: $TORMET_NODE_BIN when set, else the tormet_node next to
/// the running test binary (empty when there is none; tests then skip).
[[nodiscard]] inline std::string node_binary() {
  if (const char* env = std::getenv("TORMET_NODE_BIN")) return env;
  return sibling_node_binary();
}

/// A fresh round workdir (make_round_workdir), removed with everything in
/// it when the guard goes out of scope.
class workdir_guard {
 public:
  workdir_guard() : path_{make_round_workdir()} {}
  ~workdir_guard() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  workdir_guard(const workdir_guard&) = delete;
  workdir_guard& operator=(const workdir_guard&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Sets `plan.workload.event_port_base` to the first of `count` consecutive
/// loopback ports that are none of the plan's node ports and that bind now,
/// the way the DCs' event listeners will (SO_REUSEADDR): a port an open
/// connection holds is never picked.
inline void assign_free_event_ports(deployment_plan& plan, std::size_t count) {
  std::set<std::uint32_t> taken;
  for (const auto& n : plan.nodes) taken.insert(n.port);
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<int> fds;
    std::uint32_t base = 0;
    bool ok = true;
    for (std::size_t k = 0; ok && k < count; ++k) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      fds.push_back(fd);
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(k == 0 ? 0 : base + k));
      socklen_t len = sizeof addr;
      ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
           ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
      if (k == 0) base = ntohs(addr.sin_port);
      ok = ok && !taken.contains(base + k) && base + count <= 0x10000;
    }
    for (const int fd : fds) ::close(fd);
    if (ok && fds.size() == count) {
      plan.workload.event_port_base = static_cast<std::uint16_t>(base);
      return;
    }
  }
  throw std::runtime_error{"no run of free loopback ports for event sockets"};
}

}  // namespace tormet::cli
