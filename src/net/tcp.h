// TCP transport: the same transport contract as inproc_net but over real
// POSIX sockets: one frame per message, bounded per-channel send queues
// (backpressure), and connection retry with a deadline. Two modes:
//
//  - Single-fabric (default ctor): every node registers against this one
//    object; listeners bind ephemeral loopback ports. All endpoints live in
//    this process, so quiescence is tracked *exactly* with a fabric-wide
//    in-flight counter — run_until_quiescent() returns only when no message
//    is queued, in a socket buffer, or awaiting delivery (no idle-timeout
//    heuristic).
//
//  - Distributed (endpoint-map ctor): one fabric per OS process; each
//    process registers its own node(s), whose listeners bind the configured
//    ports, and send() connects out to the mapped host:port of remote
//    peers. Global quiescence is unknowable from one process, so protocol
//    drivers must use run_until(predicate) plus explicit completion
//    messages (see cli::node_runner's DONE/ACK round protocol);
//    run_until_quiescent() only flushes local sends and drains the inbox.
//
// Framing: a message is its head — sender epoch u64, per-channel sequence
// number u64, from u32, to u32, type u16, payload length as a varint (the
// wire codec) — followed by the payload. Each side holds a message's bytes
// once: the writer sends head and payload straight from the queued message,
// and the reader receives the payload straight into the buffer the
// delivered message owns. A reader drops a connection whose head is
// malformed or declares more than the 256 MiB message bound, before it
// reads a payload byte.
//
// Exactly-once across reconnects: a channel that loses its connection
// mid-message resends the whole message on a fresh connection, which makes
// raw delivery at-least-once. Every send is therefore tagged with the
// fabric's random epoch and a per-channel monotonically increasing sequence
// number; the receiver remembers the highest sequence seen per
// (epoch, destination) channel and drops anything at or below it. Combined
// with the channel's one-message-at-a-time sequencing this restores
// exactly-once, FIFO delivery across any number of reconnects.
//
// Event plane: ONE io thread per fabric runs an epoll readiness loop that
// multiplexes every listener, every accepted inbound connection, and every
// outbound channel over non-blocking sockets — no thread per destination,
// no thread per connection. A message goes out as one sendmsg of two
// iovecs (head, payload) that resumes from a byte offset across both on
// EAGAIN; non-blocking connects retry on a timer until the connect
// deadline. Received messages land in a mutex-protected inbox and are
// delivered on the thread that calls run_until_quiescent()/run_until(), so
// handlers never run concurrently with each other. Every socket is opened
// close-on-exec, so a process forked from a fabric's owner inherits none.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/transport.h"

namespace tormet::net {

/// Where a node listens (distributed mode).
struct tcp_endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Bound on queued-but-unwritten bytes per destination; send() blocks
/// when the queue is full (backpressure on a slow reader).
inline constexpr std::size_t k_send_queue_limit_bytes = 8u << 20;

struct tcp_options {
  /// Overall deadline for establishing (or re-establishing) one outbound
  /// connection, retried on a timer — peers in a distributed round start in
  /// arbitrary order.
  int connect_deadline_ms = 15'000;
  /// When true, a send() to a channel that exhausted its connect deadline
  /// re-arms the channel instead of failing — the io loop retries from
  /// scratch. Durable deployments enable this so a peer that is down for a
  /// restart (supervisor respawn) does not poison the channel for the rest
  /// of the schedule.
  bool repair_broken = false;
};

/// Monotonic counters for tests and diagnostics.
struct tcp_stats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t reconnects = 0;
  /// Resent messages the receiver side dropped as already-delivered (the
  /// exactly-once dedup path).
  std::uint64_t duplicates_dropped = 0;
  /// High-water mark of any destination's queued-but-unwritten bytes.
  std::uint64_t peak_queue_bytes = 0;
};

class tcp_net final : public transport {
 public:
  /// Single-fabric loopback mode (ephemeral ports, exact quiescence).
  tcp_net();
  explicit tcp_net(tcp_options opts);
  /// Distributed mode: `peers` maps every node in the deployment to its
  /// listen address. Nodes registered locally bind their mapped port;
  /// sends to any node connect to its mapped address.
  explicit tcp_net(std::map<node_id, tcp_endpoint> peers, tcp_options opts = {});
  ~tcp_net() override;
  tcp_net(const tcp_net&) = delete;
  tcp_net& operator=(const tcp_net&) = delete;

  /// Binds a listener for `id` (ephemeral loopback port in single-fabric
  /// mode; the endpoint-map port in distributed mode) and hands it to the
  /// io loop's epoll set.
  void register_node(node_id id, message_handler handler) override;

  /// Enqueues `msg` on the destination's channel. Blocks while the
  /// destination's send queue is at k_send_queue_limit_bytes; throws
  /// transport_error if the destination is unreachable past the connect
  /// deadline or the fabric is stopping.
  void send(message msg) override;

  /// Single-fabric mode: delivers until *exactly* quiescent — inbox empty
  /// and zero messages in flight anywhere in the fabric (counter-tracked; no
  /// idle-timeout heuristic). Distributed mode: flushes local sends and
  /// drains the inbox (global quiescence is per-process unknowable — use
  /// run_until). Throws transport_error when the fabric is still not
  /// quiescent after 120 s (something is wedged).
  std::size_t run_until_quiescent() override;

  /// Delivers messages until `done()` holds; throws transport_error when
  /// `deadline_ms` expires first. The predicate is evaluated after every
  /// delivered message, so completion is explicit, never inferred from
  /// idleness.
  void run_until(const std::function<bool()>& done, int deadline_ms) override;

  /// Blocks until every destination's send queue has drained to the wire.
  void flush_sends();

  /// Port a locally registered node is listening on.
  [[nodiscard]] std::uint16_t port_of(node_id id) const;

  /// Test hook: forcibly shuts down the cached connection to `id` (as if
  /// the link failed mid-stream). Subsequent sends transparently
  /// reconnect; a message cut mid-write is resent from the start on the
  /// fresh connection (the receiver discards the partial message on EOF). A message fully written before the cut may be
  /// resent too (the sender cannot tell), but the receiver's per-channel
  /// sequence dedup drops the duplicate — delivery stays exactly-once and
  /// FIFO across the reconnect.
  void drop_connections_to(node_id id);

  [[nodiscard]] tcp_stats stats() const;

 private:
  struct listener;
  struct channel;
  struct io_entry;

  void start_io();
  void io_loop();
  /// Signals the io thread's eventfd (new work, new listener, stopping).
  void wake_io() const;
  void enqueue(message msg, std::uint64_t epoch, std::uint64_t seq);
  [[nodiscard]] std::shared_ptr<channel> channel_to(node_id id);
  /// Resolves the current listen address of `id` (throws if unknown).
  [[nodiscard]] tcp_endpoint address_of(node_id id) const;

  // io-thread-only helpers (never called off the io thread).
  void io_add_listener(int fd);
  void io_accept(const io_entry& lst);
  void io_read(io_entry& conn);
  void io_service_channel(const std::shared_ptr<channel>& ch);
  void io_start_connect(const std::shared_ptr<channel>& ch);
  /// EPOLLIN/RDHUP/ERR/HUP on an outbound socket: the peer never sends
  /// application data on this simplex link, so readability means FIN/RST —
  /// drop the connection so the next write reconnects instead of pouring
  /// bytes into a dead socket (a restarted peer would otherwise silently
  /// swallow the first message written before the failure is noticed).
  void io_peer_closed(io_entry& entry);
  void io_check_connect(channel& ch);
  /// Drains the channel's queue onto the wire until EAGAIN, an error, or
  /// an empty queue; sets `completed` when whole messages finished.
  void io_write_pending(channel& ch, bool& completed, bool& gave_up);
  void io_fail_connection(channel& ch, bool& gave_up);
  void io_give_up(const std::shared_ptr<channel>& ch);
  void io_arm(channel& ch, bool want_out);
  void io_drop_entry(int fd);

  const tcp_options opts_;
  const std::map<node_id, tcp_endpoint> peers_;  // empty => single-fabric
  const bool distributed_;
  /// Random per-fabric epoch stamped into every message head; a restarted process
  /// gets a fresh epoch, so its sequence numbers never collide with its
  /// predecessor's in a receiver's dedup state.
  const std::uint64_t epoch_;

  mutable std::mutex mutex_;
  std::condition_variable inbox_cv_;
  std::deque<message> inbox_;
  std::unordered_map<node_id, message_handler> handlers_;
  std::unordered_map<node_id, std::unique_ptr<listener>> listeners_;
  std::unordered_map<node_id, std::shared_ptr<channel>> channels_;
  /// Listener fds bound by register_node, awaiting epoll registration by
  /// the io thread. Guarded by mutex_.
  std::vector<int> pending_listener_fds_;
  /// Messages sent minus messages landed in the inbox (single-fabric mode
  /// only): exact in-flight count for quiescence. Guarded by mutex_.
  std::int64_t in_flight_ = 0;
  /// Exactly-once dedup: highest sequence number delivered per
  /// (sender epoch, destination node) channel. Guarded by mutex_.
  std::map<std::pair<std::uint64_t, node_id>, std::uint64_t> seen_seq_;
  std::atomic<bool> stopping_{false};

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread io_thread_;
  /// Every fd the io loop watches (io thread only, except construction).
  std::unordered_map<int, std::unique_ptr<io_entry>> io_entries_;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> duplicates_dropped_{0};
  std::atomic<std::uint64_t> peak_queue_bytes_{0};
};

}  // namespace tormet::net
