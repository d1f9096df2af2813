#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <random>
#include <stdexcept>
#include <utility>

#include "src/net/wire.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::net {

namespace {

using clock = std::chrono::steady_clock;

/// Resend attempts per message before the io loop declares the channel
/// broken. Transient failures (peer restart, dropped link) succeed on the
/// first or second retry; a peer that *keeps* rejecting our messages would
/// otherwise loop reconnect-and-resend forever.
constexpr int k_max_write_attempts = 8;

/// Bound on one message, head and payload: a larger one is refused at the
/// sender, and a peer declaring one is dropped as malformed.
constexpr std::size_t k_max_message_bytes = 256u << 20;
/// The reader grows a payload buffer at most this far past the bytes that
/// have landed, so a peer that declares a large payload and stalls commits
/// no more memory than this.
constexpr std::size_t k_payload_step_bytes = 256u << 10;
/// Step between outbound connect attempts, until the connect deadline.
constexpr std::chrono::milliseconds k_connect_retry{25};
/// run_until_quiescent()'s failure detector (see tcp.h): never causes an
/// early *successful* return.
constexpr std::chrono::milliseconds k_quiescence_deadline{120'000};

void throw_errno(const char* what) {
  throw transport_error{std::string{what} + ": " + std::strerror(errno)};
}

/// The message head: epoch and sequence number lead, so the dedup decision
/// needs no payload parsing, then from, to, type and the payload's length.
/// On the wire a message is head ‖ payload.
constexpr std::size_t k_head_fixed_bytes = 8 + 8 + 4 + 4 + 2;
/// The fixed fields and the longest varint.
constexpr std::size_t k_max_head_bytes = k_head_fixed_bytes + 10;

[[nodiscard]] byte_buffer encode_head(const message& msg, std::uint64_t epoch,
                                      std::uint64_t seq) {
  wire_writer w;
  w.write_u64(epoch);
  w.write_u64(seq);
  w.write_u32(msg.from);
  w.write_u32(msg.to);
  w.write_u16(msg.type);
  w.write_varint(msg.payload.size());
  return w.take();
}

struct decoded_head {
  message msg;  // without its payload
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload_len = 0;
};

[[nodiscard]] decoded_head decode_head(byte_view head) {
  wire_reader r{head};
  decoded_head h;
  h.epoch = r.read_u64();
  h.seq = r.read_u64();
  h.msg.from = r.read_u32();
  h.msg.to = r.read_u32();
  h.msg.type = r.read_u16();
  h.payload_len = r.read_varint();
  r.expect_end();
  return h;
}

/// Bytes of a message head still to read when `got` of them are in: the
/// fixed fields, then the payload length one varint byte at a time, so no
/// read runs past the head into the payload. 0 once the head is whole.
[[nodiscard]] std::size_t head_bytes_needed(const std::uint8_t* head,
                                            std::size_t got) noexcept {
  if (got < k_head_fixed_bytes) return k_head_fixed_bytes - got;
  if (got > k_head_fixed_bytes && (head[got - 1] & 0x80) == 0) return 0;
  return 1;
}

/// Random per-process fabric epoch (never zero so tests can use 0 as a
/// distinct foreign epoch).
[[nodiscard]] std::uint64_t make_epoch() {
  std::random_device rd;
  const std::uint64_t e =
      (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
  return e == 0 ? 1 : e;
}

/// Approximate fabric bytes one queued message occupies (for backpressure).
[[nodiscard]] std::size_t queue_cost(const message& msg) noexcept {
  return msg.payload.size() + 64;
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < value &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

struct tcp_net::listener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// One outbound destination: a bounded message queue plus the io thread's
/// connection and partial-write state. Senders touch only the queue side
/// (under `m`); every field below the marker is mutated by the io thread
/// alone (still under `m`, so drop_connections_to and send can read fd /
/// reset the repair state safely).
struct tcp_net::channel {
  struct queued_msg {
    message msg;
    std::uint64_t seq = 0;  // assigned under `m` at enqueue: queue order == seq order
  };

  node_id dest = 0;
  std::mutex m;
  std::condition_variable cv_space;  // senders: queue fell below the limit
  std::deque<queued_msg> queue;
  std::size_t queued_bytes = 0;  // includes the message being written
  std::uint64_t next_seq = 1;    // 0 is the receiver's "nothing seen" state
  bool stop = false;
  bool broken = false;  // connect deadline exhausted: sends now fail

  // -- io-thread connection state --
  int fd = -1;
  bool connecting = false;    // non-blocking connect in flight
  bool cycle_active = false;  // a connect cycle (one deadline) is running
  bool backoff = false;       // waiting retry_at before the next attempt
  bool registered = false;    // fd present in the epoll set
  bool armed = false;         // epoll registration includes EPOLLOUT
  clock::time_point conn_deadline{};
  clock::time_point retry_at{};
  sockaddr_in addr{};         // resolved peer address for the current cycle
  byte_buffer head;           // head of queue.front() once its write began
  std::size_t sent = 0;       // bytes of head ‖ payload on the wire
  int attempts = 0;           // failed write attempts for the current message
};

/// One fd in the epoll set: the wake eventfd, a listener, an accepted
/// inbound connection (with the message it is reading), or an outbound
/// channel socket.
struct tcp_net::io_entry {
  enum class kind : std::uint8_t { wake, listen, inbound, outbound };
  kind k = kind::inbound;
  int fd = -1;
  // Inbound: the message head goes to `head`; the payload goes straight
  // into `payload`, reserved at its declared length and grown as its bytes
  // land, which the delivered message takes over.
  std::uint8_t head[k_max_head_bytes] = {};
  std::size_t head_got = 0;
  std::optional<decoded_head> decoded;  // set once the head is whole
  byte_buffer payload;
  std::size_t payload_got = 0;  // bytes of `payload` received
  // Outbound back-pointer.
  std::shared_ptr<channel> ch;
};

tcp_net::tcp_net() : tcp_net(tcp_options{}) {}

tcp_net::tcp_net(tcp_options opts)
    : opts_{opts}, peers_{}, distributed_{false}, epoch_{make_epoch()} {
  start_io();
}

tcp_net::tcp_net(std::map<node_id, tcp_endpoint> peers, tcp_options opts)
    : opts_{opts},
      peers_{std::move(peers)},
      distributed_{true},
      epoch_{make_epoch()} {
  expects(!peers_.empty(), "distributed fabric needs a peer map");
  start_io();
}

void tcp_net::start_io() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw_errno("eventfd");
  }
  auto entry = std::make_unique<io_entry>();
  entry->k = io_entry::kind::wake;
  entry->fd = wake_fd_;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = entry.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  io_entries_[wake_fd_] = std::move(entry);
  io_thread_ = std::thread{[this] { io_loop(); }};
}

void tcp_net::wake_io() const {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void tcp_net::register_node(node_id id, message_handler handler) {
  expects(handler != nullptr, "handler must be callable");
  std::lock_guard lock{mutex_};
  handlers_[id] = std::move(handler);
  if (listeners_.contains(id)) return;

  std::uint16_t want_port = 0;
  if (distributed_) {
    const auto it = peers_.find(id);
    expects(it != peers_.end(), "registered node missing from the peer map");
    want_port = it->second.port;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(distributed_ ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(want_port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("bind");
  }
  if (::listen(fd, 256) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw_errno("getsockname");
  }

  auto lst = std::make_unique<listener>();
  lst->fd = fd;
  lst->port = ntohs(addr.sin_port);
  listeners_[id] = std::move(lst);
  pending_listener_fds_.push_back(fd);
  wake_io();
}

// -- io loop ------------------------------------------------------------------

void tcp_net::io_loop() {
  std::vector<epoll_event> events(128);
  std::vector<std::shared_ptr<channel>> chs;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return;

    // Pick up listeners bound since the last pass and snapshot the channel
    // set (channels are created by senders, serviced only here).
    std::vector<int> fresh;
    {
      std::lock_guard lock{mutex_};
      fresh.swap(pending_listener_fds_);
      chs.clear();
      chs.reserve(channels_.size());
      for (const auto& [id, ch] : channels_) chs.push_back(ch);
    }
    for (const int fd : fresh) io_add_listener(fd);

    // Advance every channel's state machine (connects, retries, pending
    // writes) and find the earliest timer for the wait below.
    auto next_timer = clock::time_point::max();
    for (const auto& ch : chs) {
      io_service_channel(ch);
      std::lock_guard lk{ch->m};
      if (ch->backoff) next_timer = std::min(next_timer, ch->retry_at);
      if (ch->connecting) next_timer = std::min(next_timer, ch->conn_deadline);
    }

    int timeout_ms = -1;
    if (next_timer != clock::time_point::max()) {
      const auto now = clock::now();
      timeout_ms =
          next_timer <= now
              ? 0
              : static_cast<int>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        next_timer - now)
                        .count() +
                    1);
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd torn down — shutting down
    }
    for (int i = 0; i < n; ++i) {
      auto* entry = static_cast<io_entry*>(events[i].data.ptr);
      switch (entry->k) {
        case io_entry::kind::wake: {
          std::uint64_t buf = 0;
          while (::read(wake_fd_, &buf, sizeof buf) > 0) {
          }
          break;
        }
        case io_entry::kind::listen:
          io_accept(*entry);
          break;
        case io_entry::kind::inbound:
          io_read(*entry);
          break;
        case io_entry::kind::outbound:
          // EPOLLOUT only re-triggers the service pass at the loop top
          // (connect completion / EAGAIN resumption live in the channel
          // state machine). Readability or HUP on this simplex link means
          // the peer closed — handle that eagerly.
          if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) !=
              0) {
            io_peer_closed(*entry);
          }
          break;
      }
    }
  }
}

void tcp_net::io_add_listener(int fd) {
  auto entry = std::make_unique<io_entry>();
  entry->k = io_entry::kind::listen;
  entry->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = entry.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  io_entries_[fd] = std::move(entry);
}

void tcp_net::io_accept(const io_entry& lst) {
  for (;;) {
    const int conn =
        ::accept4(lst.fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (conn < 0) return;  // EAGAIN (drained) or listener torn down
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(conn);
      return;
    }
    auto entry = std::make_unique<io_entry>();
    entry->k = io_entry::kind::inbound;
    entry->fd = conn;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.ptr = entry.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn, &ev);
    io_entries_[conn] = std::move(entry);
  }
}

void tcp_net::io_drop_entry(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  io_entries_.erase(fd);
}

/// Feeds readiness into the inbound message reader: the head into `head`,
/// then the payload into `payload` -> enqueue. A connection cut
/// mid-message discards the partial message — the sender re-sends the
/// whole message after reconnecting.
void tcp_net::io_read(io_entry& conn) {
  // recv(2) of up to `len` (> 0) bytes: the count read, or 0 when the
  // socket is drained (EAGAIN) or the connection is gone — then it is
  // dropped, `conn` with it, and the caller must return at once.
  const auto receive = [&conn, this](std::uint8_t* buf,
                                     std::size_t len) -> std::size_t {
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, len, 0);
      if (n > 0) return static_cast<std::size_t>(n);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
      io_drop_entry(conn.fd);
      return 0;
    }
  };
  const auto malformed = [&conn, this] {
    log_line{log_level::warn}
        << "tcp_net: malformed message; dropping connection";
    io_drop_entry(conn.fd);
  };
  for (;;) {
    if (!conn.decoded.has_value()) {
      const std::size_t want = head_bytes_needed(conn.head, conn.head_got);
      if (conn.head_got + want > k_max_head_bytes) return malformed();
      const std::size_t n = receive(conn.head + conn.head_got, want);
      if (n == 0) return;
      conn.head_got += n;
      if (head_bytes_needed(conn.head, conn.head_got) > 0) continue;
      try {
        conn.decoded = decode_head(byte_view{conn.head, conn.head_got});
      } catch (const wire_error&) {
        return malformed();
      }
      // Bounded like the whole message before any payload byte is read;
      // pages are committed only as the payload's bytes arrive.
      if (conn.decoded->payload_len > k_max_message_bytes - conn.head_got) {
        return malformed();
      }
      conn.payload.reserve(conn.decoded->payload_len);
    }
    const std::size_t len = conn.decoded->payload_len;
    if (conn.payload_got < len) {
      // The unfilled tail past payload_got is never delivered: a cut
      // connection discards the whole payload.
      if (conn.payload_got == conn.payload.size()) {
        conn.payload.resize(std::min(len, conn.payload_got + k_payload_step_bytes));
      }
      const std::size_t n = receive(conn.payload.data() + conn.payload_got,
                                    conn.payload.size() - conn.payload_got);
      if (n == 0) return;
      conn.payload_got += n;
      continue;
    }
    decoded_head h = *std::exchange(conn.decoded, std::nullopt);
    h.msg.payload = std::exchange(conn.payload, {});
    conn.head_got = 0;
    conn.payload_got = 0;
    messages_received_.fetch_add(1, std::memory_order_relaxed);
    enqueue(std::move(h.msg), h.epoch, h.seq);
  }
}

/// (Re)registers the channel's socket in the epoll set. Outbound sockets
/// always watch EPOLLIN|EPOLLRDHUP (peer-death detection on a simplex
/// link); `want_out` toggles EPOLLOUT on top (connect completion / EAGAIN
/// resumption).
void tcp_net::io_arm(channel& ch, bool want_out) {
  if (ch.fd < 0) return;
  const auto it = io_entries_.find(ch.fd);
  if (it == io_entries_.end()) return;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (want_out ? EPOLLOUT : 0u);
  ev.data.ptr = it->second.get();
  if (!ch.registered) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ch.fd, &ev);
    ch.registered = true;
  } else if (want_out != ch.armed) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, ch.fd, &ev);
  }
  ch.armed = want_out;
}

void tcp_net::io_start_connect(const std::shared_ptr<channel>& chp) {
  channel& ch = *chp;
  // One connect cycle spans every retry until the deadline; a fresh cycle
  // (fresh deadline) begins after a successful connection is later lost.
  const auto now = clock::now();
  if (!ch.cycle_active) {
    ch.cycle_active = true;
    ch.conn_deadline = now + std::chrono::milliseconds{opts_.connect_deadline_ms};
  }

  tcp_endpoint ep;
  try {
    ep = address_of(ch.dest);
  } catch (const std::exception&) {
    ch.backoff = true;
    ch.retry_at = now + k_connect_retry;
    return;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    if (res != nullptr) ::freeaddrinfo(res);
    ch.backoff = true;
    ch.retry_at = now + k_connect_retry;
    return;
  }
  std::memcpy(&ch.addr, res->ai_addr, std::min(sizeof ch.addr,
                                               std::size_t{res->ai_addrlen}));
  ::freeaddrinfo(res);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ch.backoff = true;
    ch.retry_at = now + k_connect_retry;
    return;
  }
  auto entry = std::make_unique<io_entry>();
  entry->k = io_entry::kind::outbound;
  entry->fd = fd;
  entry->ch = chp;
  io_entries_[fd] = std::move(entry);
  ch.fd = fd;
  ch.registered = false;
  ch.armed = false;

  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&ch.addr), sizeof ch.addr);
  if (rc == 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ch.cycle_active = false;
    io_arm(ch, false);  // watch for peer death from the start
    return;
  }
  if (errno == EINPROGRESS) {
    ch.connecting = true;
    io_arm(ch, true);
    return;
  }
  // Synchronous refusal: retry on the timer until the cycle deadline.
  io_drop_entry(fd);
  ch.fd = -1;
  ch.registered = false;
  ch.armed = false;
  if (clock::now() >= ch.conn_deadline) {
    ch.cycle_active = false;
    ch.broken = true;  // flag checked by the caller via io_fail path
  } else {
    ch.backoff = true;
    ch.retry_at = clock::now() + k_connect_retry;
  }
}

/// Polls an in-flight non-blocking connect by re-calling connect(2):
/// EISCONN/0 means established, EALREADY/EINPROGRESS still pending,
/// anything else carries the failure.
void tcp_net::io_check_connect(channel& ch) {
  const int rc =
      ::connect(ch.fd, reinterpret_cast<const sockaddr*>(&ch.addr), sizeof ch.addr);
  if (rc == 0 || errno == EISCONN) {
    const int one = 1;
    ::setsockopt(ch.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ch.connecting = false;
    ch.cycle_active = false;
    io_arm(ch, false);
    return;
  }
  if (errno == EALREADY || errno == EINPROGRESS) {
    if (clock::now() >= ch.conn_deadline) {
      io_drop_entry(ch.fd);
      ch.fd = -1;
      ch.registered = false;
      ch.armed = false;
      ch.connecting = false;
      ch.cycle_active = false;
      ch.broken = true;
    }
    return;
  }
  // Connect failed (refused/reset): drop the socket, retry until deadline.
  io_drop_entry(ch.fd);
  ch.fd = -1;
  ch.registered = false;
  ch.armed = false;
  ch.connecting = false;
  if (clock::now() >= ch.conn_deadline) {
    ch.cycle_active = false;
    ch.broken = true;
  } else {
    ch.backoff = true;
    ch.retry_at = clock::now() + k_connect_retry;
  }
}

/// A write failed on an established connection: drop the socket and either
/// resend the whole message on a fresh connection or give up after
/// k_max_write_attempts.
void tcp_net::io_fail_connection(channel& ch, bool& gave_up) {
  io_drop_entry(ch.fd);
  ch.fd = -1;
  ch.registered = false;
  ch.armed = false;
  ch.cycle_active = false;  // the reconnect gets a fresh deadline
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  ch.sent = 0;  // whole-message resend
  // Re-service immediately: without a timer the epoll wait could sleep
  // indefinitely with this message still queued (no readiness event is
  // coming for a closed socket).
  ch.backoff = true;
  ch.retry_at = clock::now();
  if (++ch.attempts >= k_max_write_attempts) gave_up = true;
}

void tcp_net::io_peer_closed(io_entry& entry) {
  const std::shared_ptr<channel> ch = entry.ch;
  if (ch == nullptr) return;
  bool gave_up = false;
  {
    std::lock_guard lk{ch->m};
    if (ch->fd != entry.fd || ch->fd < 0) return;
    if (ch->connecting) return;  // failed connects go through io_check_connect
    if (!ch->queue.empty()) {
      // Mid-message (or more queued): reconnect and resend from the start.
      io_fail_connection(*ch, gave_up);
    } else {
      // Idle connection to a gone peer: drop it quietly so the next send
      // dials fresh (a restarted peer listens on the same port but this
      // socket will never carry another byte).
      io_drop_entry(ch->fd);
      ch->fd = -1;
      ch->registered = false;
      ch->armed = false;
      ch->cycle_active = false;
    }
  }
  if (gave_up) io_give_up(ch);
}

void tcp_net::io_write_pending(channel& ch, bool& completed, bool& gave_up) {
  while (!ch.queue.empty()) {
    channel::queued_msg& next = ch.queue.front();
    if (ch.head.empty()) ch.head = encode_head(next.msg, epoch_, next.seq);
    byte_buffer& payload = next.msg.payload;
    while (ch.sent < ch.head.size() + payload.size()) {
      // The unsent rest of head ‖ payload, straight from the queued message.
      iovec parts[2];
      std::size_t n_parts = 0;
      if (ch.sent < ch.head.size()) {
        parts[n_parts++] = {ch.head.data() + ch.sent, ch.head.size() - ch.sent};
      }
      const std::size_t at = ch.sent - std::min(ch.sent, ch.head.size());
      if (at < payload.size()) {
        parts[n_parts++] = {payload.data() + at, payload.size() - at};
      }
      msghdr out{};
      out.msg_iov = parts;
      out.msg_iovlen = n_parts;
      const ssize_t n = ::sendmsg(ch.fd, &out, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          io_arm(ch, true);  // resume from `sent` on the next readiness
          return;
        }
        io_fail_connection(ch, gave_up);
        return;
      }
      ch.sent += static_cast<std::size_t>(n);
    }
    // Message fully on the wire; leaving the queue frees its payload.
    ch.queued_bytes -= queue_cost(next.msg);
    ch.queue.pop_front();
    ch.head.clear();
    ch.sent = 0;
    ch.attempts = 0;
    completed = true;
  }
  io_arm(ch, false);
}

void tcp_net::io_service_channel(const std::shared_ptr<channel>& ch) {
  bool completed = false;
  bool gave_up = false;
  {
    std::lock_guard lk{ch->m};
    if (ch->stop || ch->broken) {
      // Broken channels sit idle until repair_broken resets them in send().
      if (ch->broken && (ch->connecting || ch->backoff)) {
        ch->connecting = false;
        ch->backoff = false;
      }
    } else {
      const auto now = clock::now();
      if (ch->backoff && now >= ch->retry_at) ch->backoff = false;
      if (ch->connecting) io_check_connect(*ch);
      const bool has_work = !ch->queue.empty();
      if (!ch->broken && !ch->connecting && !ch->backoff && has_work &&
          ch->fd < 0 && !stopping_.load(std::memory_order_acquire)) {
        io_start_connect(ch);
      }
      if (!ch->broken && !ch->connecting && !ch->backoff && ch->fd >= 0 &&
          has_work) {
        io_write_pending(*ch, completed, gave_up);
      }
      // A connect cycle that exhausted its deadline marks broken above;
      // fold it into the give-up path (drop the queue, notify waiters).
      if (ch->broken) {
        ch->broken = false;  // io_give_up re-derives it from ch->stop
        gave_up = true;
      }
    }
  }
  if (completed) {
    ch->cv_space.notify_all();
    if (distributed_) {
      // Distributed run_until_quiescent() watches channel queues drain.
      // The empty critical section orders this notify after a waiter that
      // just inspected the queues has reached wait_until, so the drain is
      // never missed.
      { std::lock_guard lock{mutex_}; }
      inbox_cv_.notify_all();
    }
  }
  if (gave_up) io_give_up(ch);
}

/// Connect deadline exhausted or resend attempts spent: drop everything
/// queued, mark the channel broken (unless stopping), and wake every
/// waiter — the same semantics a dedicated writer thread's give-up path
/// had.
void tcp_net::io_give_up(const std::shared_ptr<channel>& ch) {
  std::size_t dropped = 0;
  bool was_stop = false;
  {
    std::lock_guard lk{ch->m};
    was_stop = ch->stop;
    ch->broken = !was_stop;
    dropped = ch->queue.size();
    ch->queue.clear();
    ch->queued_bytes = 0;
    ch->head.clear();
    ch->sent = 0;
    ch->attempts = 0;
    ch->connecting = false;
    ch->cycle_active = false;
    ch->backoff = false;
    if (ch->fd >= 0) {
      io_drop_entry(ch->fd);
      ch->fd = -1;
      ch->registered = false;
      ch->armed = false;
    }
  }
  ch->cv_space.notify_all();
  {
    std::lock_guard lock{mutex_};
    if (!distributed_) in_flight_ -= static_cast<std::int64_t>(dropped);
  }
  inbox_cv_.notify_all();
  if (!was_stop) {
    log_line{log_level::warn}
        << "tcp_net: destination " << ch->dest
        << " unreachable past the connect deadline; dropped " << dropped
        << " queued message(s)";
    // Channel stays alive (broken) to reject later sends until shutdown.
  }
}

// -- sender-side API ----------------------------------------------------------

void tcp_net::enqueue(message msg, std::uint64_t epoch, std::uint64_t seq) {
  {
    std::lock_guard lock{mutex_};
    // Exactly-once: whole messages are resent after a reconnect, so a
    // message fully written before the cut can arrive twice. Sequence
    // numbers increase monotonically per (epoch, destination) channel and
    // connections deliver in order, so anything at or below the high-water
    // mark was already delivered. A dropped duplicate must NOT decrement
    // in_flight_ — its first arrival already balanced the send.
    std::uint64_t& max_seen = seen_seq_[{epoch, msg.to}];
    if (seq <= max_seen) {
      duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    max_seen = seq;
    inbox_.push_back(std::move(msg));
    if (!distributed_) --in_flight_;
  }
  inbox_cv_.notify_all();
}

tcp_endpoint tcp_net::address_of(node_id id) const {
  if (distributed_) {
    const auto it = peers_.find(id);
    expects(it != peers_.end(), "destination node missing from the peer map");
    return it->second;
  }
  std::lock_guard lock{mutex_};
  const auto it = listeners_.find(id);
  expects(it != listeners_.end(), "destination node is not registered");
  return tcp_endpoint{"127.0.0.1", it->second->port};
}

std::shared_ptr<tcp_net::channel> tcp_net::channel_to(node_id id) {
  std::lock_guard lock{mutex_};
  expects(!stopping_.load(), "send on a stopping fabric");
  const auto cached = channels_.find(id);
  if (cached != channels_.end()) return cached->second;

  if (distributed_) {
    expects(peers_.contains(id), "destination node missing from the peer map");
  } else {
    expects(listeners_.contains(id), "destination node is not registered");
  }

  auto ch = std::make_shared<channel>();
  ch->dest = id;
  channels_[id] = ch;
  return ch;
}

void tcp_net::send(message msg) {
  // Fail oversized messages at the sender instead of letting the receiver
  // reject the message as malformed (which would read as a link failure).
  if (queue_cost(msg) > k_max_message_bytes) {
    throw transport_error{"send: message exceeds the message size bound"};
  }
  const std::shared_ptr<channel> ch = channel_to(msg.to);

  if (!distributed_) {
    std::lock_guard lock{mutex_};
    ++in_flight_;
  }

  bool rejected = false;
  {
    std::unique_lock lk{ch->m};
    // Durable deployments re-arm a broken channel: the peer may just be
    // restarting, and its supervisor will bring the listener back. The io
    // loop starts a fresh connect cycle (fresh deadline) for it.
    if (opts_.repair_broken && ch->broken) {
      ch->broken = false;
      ch->attempts = 0;
      ch->cycle_active = false;
    }
    ch->cv_space.wait(lk, [&] {
      return ch->stop || ch->broken ||
             ch->queued_bytes < k_send_queue_limit_bytes;
    });
    if (ch->stop || ch->broken) {
      rejected = true;
    } else {
      ch->queued_bytes += queue_cost(msg);
      atomic_max(peak_queue_bytes_, ch->queued_bytes);
      ch->queue.push_back(channel::queued_msg{std::move(msg), ch->next_seq++});
    }
  }
  if (rejected) {
    if (!distributed_) {
      std::lock_guard lock{mutex_};
      --in_flight_;
    }
    inbox_cv_.notify_all();
    throw transport_error{"send: destination channel is broken or stopping"};
  }
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  wake_io();
}

std::size_t tcp_net::run_until_quiescent() {
  const auto deadline = clock::now() + k_quiescence_deadline;
  std::size_t delivered = 0;
  std::unique_lock lock{mutex_};
  for (;;) {
    if (!inbox_.empty()) {
      message msg = std::move(inbox_.front());
      inbox_.pop_front();
      const auto it = handlers_.find(msg.to);
      message_handler handler = it != handlers_.end() ? it->second : nullptr;
      lock.unlock();
      if (handler) {
        handler(msg);
        ++delivered;
      }
      lock.lock();
      continue;
    }
    if (distributed_) {
      // Local-only semantics: drain the inbox and flush our own sends.
      // Global quiescence cannot be observed from one process — the round
      // protocols use run_until(predicate) + explicit DONE/ACK instead.
      std::vector<std::shared_ptr<channel>> chs;
      chs.reserve(channels_.size());
      for (const auto& [id, c] : channels_) chs.push_back(c);
      lock.unlock();
      bool idle = true;
      for (const auto& c : chs) {
        std::lock_guard lk{c->m};
        if (c->queued_bytes != 0) idle = false;
      }
      lock.lock();
      if (idle && inbox_.empty()) return delivered;
    } else if (in_flight_ == 0) {
      // Exact: every message ever sent has landed in the inbox (and the
      // inbox is empty) — nothing queued, in a socket buffer, or in the io
      // loop. No idle-timeout guessing.
      return delivered;
    }
    if (inbox_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        inbox_.empty()) {
      if (!distributed_ && in_flight_ == 0) return delivered;
      throw transport_error{
          "run_until_quiescent: fabric failed to reach quiescence before the "
          "deadline (wedged peer or lost messages)"};
    }
  }
}

void tcp_net::run_until(const std::function<bool()>& done, int deadline_ms) {
  expects(done != nullptr, "run_until needs a completion predicate");
  const auto deadline = clock::now() + std::chrono::milliseconds{deadline_ms};
  if (done()) return;
  std::unique_lock lock{mutex_};
  for (;;) {
    if (!inbox_.empty()) {
      message msg = std::move(inbox_.front());
      inbox_.pop_front();
      const auto it = handlers_.find(msg.to);
      message_handler handler = it != handlers_.end() ? it->second : nullptr;
      lock.unlock();
      if (handler) handler(msg);
      if (done()) return;
      lock.lock();
      continue;
    }
    // Wait in slices and re-evaluate the predicate each wakeup: it may be
    // flipped by state outside this fabric's handlers (another fabric's
    // delivery thread, a signal flag), not only by a message arriving here.
    const auto slice = std::min<clock::duration>(
        std::chrono::milliseconds{50}, deadline - clock::now());
    const bool timed_out =
        slice <= clock::duration::zero() ||
        inbox_cv_.wait_for(lock, slice) == std::cv_status::timeout;
    if (inbox_.empty()) {
      lock.unlock();
      const bool finished = done();
      lock.lock();
      if (finished) return;
      if (timed_out && clock::now() >= deadline) {
        throw transport_error{
            "run_until: deadline expired before the completion predicate held"};
      }
    }
  }
}

void tcp_net::flush_sends() {
  std::vector<std::shared_ptr<channel>> chs;
  {
    std::lock_guard lock{mutex_};
    chs.reserve(channels_.size());
    for (const auto& [id, ch] : channels_) chs.push_back(ch);
  }
  for (const auto& ch : chs) {
    std::unique_lock lk{ch->m};
    ch->cv_space.wait(lk, [&] {
      return ch->stop || ch->broken || ch->queued_bytes == 0;
    });
  }
}

std::uint16_t tcp_net::port_of(node_id id) const {
  std::lock_guard lock{mutex_};
  const auto it = listeners_.find(id);
  expects(it != listeners_.end(), "node is not registered");
  return it->second->port;
}

void tcp_net::drop_connections_to(node_id id) {
  std::shared_ptr<channel> ch;
  {
    std::lock_guard lock{mutex_};
    const auto it = channels_.find(id);
    if (it == channels_.end()) return;
    ch = it->second;
  }
  std::lock_guard lk{ch->m};
  if (ch->fd >= 0) ::shutdown(ch->fd, SHUT_RDWR);
}

tcp_stats tcp_net::stats() const {
  tcp_stats out;
  out.messages_sent = messages_sent_.load();
  out.messages_received = messages_received_.load();
  out.reconnects = reconnects_.load();
  out.duplicates_dropped = duplicates_dropped_.load();
  out.peak_queue_bytes = peak_queue_bytes_.load();
  return out;
}

tcp_net::~tcp_net() {
  stopping_.store(true, std::memory_order_release);

  std::vector<std::shared_ptr<channel>> chs;
  {
    std::lock_guard lock{mutex_};
    chs.reserve(channels_.size());
    for (auto& [id, ch] : channels_) chs.push_back(ch);
  }
  // Unblock senders stuck in backpressure waits, then stop the io loop.
  for (const auto& ch : chs) {
    {
      std::lock_guard lk{ch->m};
      ch->stop = true;
      if (ch->fd >= 0) ::shutdown(ch->fd, SHUT_RDWR);
    }
    ch->cv_space.notify_all();
  }
  wake_io();
  if (io_thread_.joinable()) io_thread_.join();

  // The io thread is gone: account and release everything it owned.
  std::size_t dropped = 0;
  for (const auto& ch : chs) {
    std::lock_guard lk{ch->m};
    dropped += ch->queue.size();
    ch->queue.clear();
    ch->queued_bytes = 0;
    if (ch->fd >= 0) {
      ::close(ch->fd);
      ch->fd = -1;
    }
  }
  {
    std::lock_guard lock{mutex_};
    if (!distributed_) in_flight_ -= static_cast<std::int64_t>(dropped);
    for (auto& [id, lst] : listeners_) ::close(lst->fd);
  }
  inbox_cv_.notify_all();
  for (auto& [fd, entry] : io_entries_) {
    // Outbound fds are owned via their channel (closed above); listener
    // fds via listeners_. Inbound connections and the wake eventfd are
    // owned here.
    if (entry->k == io_entry::kind::inbound || entry->k == io_entry::kind::wake) {
      ::close(fd);
    }
  }
  io_entries_.clear();
  ::close(epoll_fd_);
}

}  // namespace tormet::net
