#include "src/tor/trace_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <thread>

#include "src/util/check.h"

namespace tormet::tor {

namespace {

/// The receiving end of one event socket: the listener bound at
/// construction, then the one feeder connection it accepts.
class feeder_socket {
 public:
  feeder_socket(std::uint16_t port, int timeout_ms)
      : port_{port}, timeout_ms_{timeout_ms} {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    expects(listen_fd_ >= 0, "event socket: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 1) != 0) {
      ::close(listen_fd_);
      throw precondition_error{"event socket: cannot listen on port " +
                               std::to_string(port)};
    }
  }
  ~feeder_socket() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  feeder_socket(const feeder_socket&) = delete;
  feeder_socket& operator=(const feeder_socket&) = delete;

  /// trace_reader's byte source: accepts the feeder on first use, then
  /// receives up to `n` bytes (0 once the feeder closed its side).
  std::size_t receive(std::uint8_t* buf, std::size_t n) {
    if (conn_fd_ < 0) accept_feeder();
    for (;;) {
      const ssize_t got = ::recv(conn_fd_, buf, n, 0);
      if (got >= 0) return static_cast<std::size_t>(got);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw net::wire_error{"event socket: feeder stalled beyond " +
                              std::to_string(timeout_ms_) + " ms"};
      }
      throw net::wire_error{"event socket: recv failed"};
    }
  }

 private:
  void accept_feeder() {
    if (timeout_ms_ > 0) {
      pollfd waiter{listen_fd_, POLLIN, 0};
      if (::poll(&waiter, 1, timeout_ms_) <= 0) {
        throw precondition_error{
            "event socket: no feeder connected to port " +
            std::to_string(port_) + " within " + std::to_string(timeout_ms_) +
            " ms"};
      }
    }
    conn_fd_ = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    expects(conn_fd_ >= 0, "event socket: accept failed");
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (timeout_ms_ > 0) {
      timeval tv{};
      tv.tv_sec = timeout_ms_ / 1000;
      tv.tv_usec = (timeout_ms_ % 1000) * 1000;
      ::setsockopt(conn_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
  }

  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::uint16_t port_;
  int timeout_ms_;
};

/// Connects to host:port, retrying until the deadline (feeder and receiver
/// may start in either order). The writer takes over the connected fd.
[[nodiscard]] trace_writer connect_writer(const std::string& host,
                                          std::uint16_t port, int timeout_ms) {
  using clock = std::chrono::steady_clock;
  const std::string label = "event socket " + host + ":" + std::to_string(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw precondition_error{"event socket: bad host " + host};
  }
  const auto deadline = clock::now() + std::chrono::milliseconds{timeout_ms};
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    expects(fd >= 0, "event socket: socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return trace_writer{fd, label};
    }
    ::close(fd);
    if (clock::now() >= deadline) {
      throw precondition_error{label + ": connect timed out"};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
}

}  // namespace

event_socket_source::event_socket_source(std::uint16_t port, int timeout_ms)
    : trace_reader{[socket = std::make_shared<feeder_socket>(port, timeout_ms)](
                       std::uint8_t* buf, std::size_t n) {
                     return socket->receive(buf, n);
                   },
                   "event socket"} {}

std::size_t stream_events_to_socket(const std::string& host, std::uint16_t port,
                                    std::span<const event> events,
                                    int connect_timeout_ms) {
  trace_writer out = connect_writer(host, port, connect_timeout_ms);
  for (const event& ev : events) out.write(ev);
  out.close();
  return out.events_written();
}

std::size_t stream_trace_to_socket(const std::string& host, std::uint16_t port,
                                   const std::string& trace_path,
                                   int connect_timeout_ms) {
  trace_reader in{trace_path};
  trace_writer out = connect_writer(host, port, connect_timeout_ms);
  while (const std::optional<event> ev = in.next()) out.write(*ev);
  out.close();
  return out.events_written();
}

}  // namespace tormet::tor
