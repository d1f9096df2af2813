// Transport tests: deterministic inproc delivery + failure injection, real
// TCP loopback framing (multi-megabyte messages, reconnect after a
// mid-stream disconnect, send-queue backpressure), explicit run_until
// completion, the two-fabric distributed mode, raw peers that split,
// duplicate or corrupt messages, and close-on-exec sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/net/inproc.h"
#include "src/net/tcp.h"
#include "src/net/wire.h"
#include "src/tor/trace_socket.h"

namespace tormet::net {
namespace {

TEST(InprocTest, DeliversInFifoOrder) {
  inproc_net bus;
  std::vector<int> received;
  bus.register_node(1, [&](const message& m) {
    received.push_back(static_cast<int>(m.payload[0]));
  });
  for (int i = 0; i < 5; ++i) {
    bus.send(message{0, 1, 7, byte_buffer{static_cast<std::uint8_t>(i)}});
  }
  EXPECT_EQ(bus.run_until_quiescent(), 5u);
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(InprocTest, HandlersMaySendDuringDelivery) {
  inproc_net bus;
  int hops = 0;
  bus.register_node(1, [&](const message& m) {
    ++hops;
    if (m.payload[0] < 3) {
      bus.send(message{1, 2, 0, byte_buffer{m.payload[0]}});
    }
  });
  bus.register_node(2, [&](const message& m) {
    ++hops;
    bus.send(message{2, 1, 0,
                     byte_buffer{static_cast<std::uint8_t>(m.payload[0] + 1)}});
  });
  bus.send(message{0, 1, 0, byte_buffer{0}});
  bus.run_until_quiescent();
  EXPECT_EQ(hops, 7);  // 1,2,1,2,1,2,1 until payload reaches 3
}

TEST(InprocTest, PartitionDropsBothDirections) {
  inproc_net bus;
  int received = 0;
  bus.register_node(1, [&](const message&) { ++received; });
  bus.register_node(2, [&](const message&) { ++received; });
  bus.partition_node(2);
  bus.send(message{1, 2, 0, {}});
  bus.send(message{2, 1, 0, {}});
  bus.send(message{0, 1, 0, {}});
  bus.run_until_quiescent();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus.dropped_count(), 2u);

  bus.heal_node(2);
  bus.send(message{1, 2, 0, {}});
  bus.run_until_quiescent();
  EXPECT_EQ(received, 2);
}

TEST(InprocTest, UnknownDestinationCountsAsDropped) {
  inproc_net bus;
  bus.send(message{0, 99, 0, {}});
  bus.run_until_quiescent();
  EXPECT_EQ(bus.dropped_count(), 1u);
}

TEST(InprocTest, RandomDropIsDeterministic) {
  const auto run = [](std::uint64_t seed) {
    inproc_net bus;
    int received = 0;
    bus.register_node(1, [&](const message&) { ++received; });
    bus.set_drop_probability(0.5, seed);
    for (int i = 0; i < 100; ++i) bus.send(message{0, 1, 0, {}});
    bus.run_until_quiescent();
    return received;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_GT(run(9), 20);
  EXPECT_LT(run(9), 80);
}

TEST(TcpTest, RoundTripBetweenNodes) {
  tcp_net bus;
  std::vector<std::string> got;
  bus.register_node(1, [&](const message& m) {
    got.push_back(std::string{m.payload.begin(), m.payload.end()});
    if (got.back() == "ping") {
      bus.send(message{1, 2, 5, byte_buffer{'p', 'o', 'n', 'g'}});
    }
  });
  std::string pong;
  bus.register_node(2, [&](const message& m) {
    pong.assign(m.payload.begin(), m.payload.end());
  });

  bus.send(message{2, 1, 5, byte_buffer{'p', 'i', 'n', 'g'}});
  bus.run_until_quiescent();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "ping");
  EXPECT_EQ(pong, "pong");
}

TEST(TcpTest, LargeMessageSurvivesFraming) {
  tcp_net bus;
  byte_buffer received;
  bus.register_node(1, [&](const message& m) { received = m.payload; });
  byte_buffer big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  bus.register_node(2, [](const message&) {});
  bus.send(message{2, 1, 9, big});
  bus.run_until_quiescent();
  EXPECT_EQ(received, big);
}

TEST(TcpTest, ManySmallMessagesKeepOrderPerSender) {
  tcp_net bus;
  std::vector<int> seq;
  bus.register_node(1, [&](const message& m) {
    seq.push_back(static_cast<int>(m.payload[0]));
  });
  bus.register_node(2, [](const message&) {});
  for (int i = 0; i < 50; ++i) {
    bus.send(message{2, 1, 0, byte_buffer{static_cast<std::uint8_t>(i)}});
  }
  bus.run_until_quiescent();
  ASSERT_EQ(seq.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seq[static_cast<std::size_t>(i)], i);
}

TEST(TcpTest, PortsAreDistinct) {
  tcp_net bus;
  bus.register_node(1, [](const message&) {});
  bus.register_node(2, [](const message&) {});
  EXPECT_NE(bus.port_of(1), bus.port_of(2));
  EXPECT_GT(bus.port_of(1), 0);
}

[[nodiscard]] byte_buffer patterned_payload(std::size_t size) {
  byte_buffer out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  return out;
}

TEST(TcpTest, MultiMegabyteMessageIsReassembled) {
  tcp_net bus;
  byte_buffer received;
  bus.register_node(1, [&](const message& m) { received = m.payload; });
  bus.register_node(2, [](const message&) {});

  const byte_buffer big = patterned_payload(5u << 20);  // 5 MiB > 4 MiB
  bus.send(message{2, 1, 9, big});
  bus.run_until_quiescent();
  EXPECT_EQ(received, big);
  EXPECT_EQ(bus.stats().messages_received, 1u);
}

TEST(TcpTest, ReconnectsAfterMidStreamDisconnect) {
  tcp_net bus;
  std::vector<std::string> got;
  bus.register_node(1, [&](const message& m) {
    got.emplace_back(m.payload.begin(), m.payload.end());
  });
  bus.register_node(2, [](const message&) {});

  bus.send(message{2, 1, 0, byte_buffer{'a'}});
  bus.run_until_quiescent();
  ASSERT_EQ(got.size(), 1u);

  // Kill the established connection; the next send must transparently
  // reconnect and deliver.
  bus.drop_connections_to(1);
  bus.send(message{2, 1, 0, byte_buffer{'b'}});
  bus.run_until_quiescent();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "b");
}

TEST(TcpTest, LargeMessageSurvivesConnectionCutDuringTransfer) {
  // Cut the link while a multi-megabyte message may be mid-write: the
  // receiver discards any partial message and the writer re-sends the
  // whole message on a fresh connection — exactly one copy arrives.
  tcp_net bus;
  std::atomic<int> deliveries{0};
  byte_buffer received;
  bus.register_node(1, [&](const message& m) {
    ++deliveries;
    received = m.payload;
  });
  bus.register_node(2, [](const message&) {});

  const byte_buffer big = patterned_payload(8u << 20);
  std::thread sender{[&] { bus.send(message{2, 1, 3, big}); }};
  bus.drop_connections_to(1);  // races the write on purpose
  sender.join();
  bus.run_until_quiescent();
  EXPECT_EQ(deliveries.load(), 1);
  EXPECT_EQ(received, big);
}

/// Reserves a currently free loopback port (bind 0, read it back, close).
[[nodiscard]] std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(TcpTest, BackpressureBoundsTheSendQueueOnASlowReader) {
  // Distributed-mode fabric whose peer is not up yet (the slowest possible
  // reader): the writer blocks in connect retry, sends pile into the
  // bounded queue, and the producer thread stalls (backpressure) instead
  // of buffering without limit. Once the receiver comes up everything
  // drains.
  std::map<node_id, tcp_endpoint> map{
      {1, {"127.0.0.1", free_port()}},
      {2, {"127.0.0.1", free_port()}},
  };

  tcp_options opts;
  opts.connect_deadline_ms = 20'000;
  tcp_net sender{map, opts};

  // 12 MiB against the 8 MiB queue bound.
  const std::size_t n_messages = 24;
  const byte_buffer payload = patterned_payload(512 * 1024);
  std::atomic<bool> all_sent{false};
  std::thread producer{[&] {
    for (std::size_t i = 0; i < n_messages; ++i) {
      sender.send(message{2, 1, 0, payload});
    }
    all_sent = true;
  }};

  std::this_thread::sleep_for(std::chrono::milliseconds{200});
  EXPECT_FALSE(all_sent.load());  // backpressure held the producer back
  EXPECT_LE(sender.stats().peak_queue_bytes,
            k_send_queue_limit_bytes + payload.size() + 64);

  tcp_net receiver{map};
  std::atomic<std::size_t> got{0};
  receiver.register_node(1, [&](const message&) { ++got; });
  receiver.run_until([&] { return got.load() == n_messages; }, 30'000);
  producer.join();
  EXPECT_TRUE(all_sent.load());
  EXPECT_EQ(got.load(), n_messages);
  sender.flush_sends();
}

TEST(TcpTest, SixtyFourChannelsMultiplexThroughOneEventLoop) {
  // One fabric = one epoll loop. 64 sender nodes each hold their own
  // outbound channel to one sink, so the loop multiplexes 64 outbound
  // connections, 64 inbound connections, and 65 listen sockets at once.
  // Per-channel FIFO order must hold under the interleaving.
  tcp_net bus;
  constexpr node_id k_sink = 1000;
  constexpr std::uint32_t k_senders = 64;
  constexpr std::uint8_t k_per_sender = 10;
  std::map<std::uint32_t, std::vector<std::uint8_t>> got;
  std::atomic<std::size_t> total{0};
  bus.register_node(k_sink, [&](const message& m) {
    got[m.from].push_back(m.payload[0]);
    ++total;
  });
  for (std::uint32_t i = 1; i <= k_senders; ++i) {
    bus.register_node(i, [](const message&) {});
  }
  for (std::uint8_t j = 0; j < k_per_sender; ++j) {
    for (std::uint32_t i = 1; i <= k_senders; ++i) {
      bus.send(message{i, k_sink, 0, byte_buffer{j}});
    }
  }
  bus.run_until([&] { return total.load() == k_senders * k_per_sender; },
                30'000);
  ASSERT_EQ(got.size(), k_senders);
  for (std::uint32_t i = 1; i <= k_senders; ++i) {
    ASSERT_EQ(got[i].size(), k_per_sender) << "sender " << i;
    for (std::uint8_t j = 0; j < k_per_sender; ++j) {
      EXPECT_EQ(got[i][j], j) << "sender " << i << " out of order";
    }
  }
}

TEST(TcpTest, HugeMessageResumesAcrossPartialWrites) {
  // A 6 MiB message cannot fit any socket buffer: the non-blocking writer
  // necessarily hits EAGAIN mid-message and must resume from its byte
  // offset — byte-exact — across many readiness cycles.
  tcp_net bus;
  byte_buffer received;
  bus.register_node(1, [&](const message& m) { received = m.payload; });
  bus.register_node(2, [](const message&) {});

  const byte_buffer big = patterned_payload(6u << 20);  // 6 MiB > 4 MiB
  bus.send(message{2, 1, 9, big});
  bus.run_until_quiescent();
  EXPECT_EQ(received, big);
  EXPECT_EQ(bus.stats().messages_received, 1u);
}

TEST(TcpTest, ReconnectUnderLoadStaysExactlyOnce) {
  // Cut the connection repeatedly while a stream of messages is in flight:
  // the writer re-sends whole messages it cannot prove delivered, and the
  // receiver's (epoch, seq) dedup must collapse every resend — each message
  // arrives exactly once, intact, in order.
  tcp_net bus;
  constexpr std::uint8_t k_messages = 40;
  std::vector<std::uint8_t> order;
  std::atomic<std::size_t> deliveries{0};
  std::atomic<bool> corrupt{false};
  bus.register_node(1, [&](const message& m) {
    const std::uint8_t index = m.payload[0];
    order.push_back(index);
    ++deliveries;
    const byte_buffer expected = patterned_payload(96 * 1024);
    for (std::size_t i = 1; i < m.payload.size(); ++i) {
      if (m.payload[i] != expected[i]) corrupt = true;
    }
  });
  bus.register_node(2, [](const message&) {});

  std::thread sender{[&] {
    for (std::uint8_t i = 0; i < k_messages; ++i) {
      byte_buffer payload = patterned_payload(96 * 1024);
      payload[0] = i;  // message identity for the exactly-once check
      bus.send(message{2, 1, 3, payload});
    }
  }};
  for (int cut = 0; cut < 8; ++cut) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    bus.drop_connections_to(1);  // races the writes on purpose
  }
  sender.join();
  bus.run_until_quiescent();
  EXPECT_EQ(deliveries.load(), k_messages);  // no loss AND no duplicates
  EXPECT_FALSE(corrupt.load());
  ASSERT_EQ(order.size(), k_messages);
  for (std::uint8_t i = 0; i < k_messages; ++i) EXPECT_EQ(order[i], i);
}

TEST(TcpTest, StalledReaderExertsBackpressureWithoutUnboundedBuffering) {
  // The peer is up and connected but never reads (a stalled reader, not a
  // dead one): the kernel buffers fill, the writer parks on EAGAIN, the
  // bounded send queue fills, and the producer thread stalls instead of
  // buffering without limit. When the reader finally drains, everything
  // flows.
  const std::uint16_t stalled_port = free_port();
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(stalled_port);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);

  std::map<node_id, tcp_endpoint> map{
      {1, {"127.0.0.1", stalled_port}},
      {2, {"127.0.0.1", free_port()}},
  };
  tcp_net sender{map};

  std::atomic<int> accepted_fd{-1};
  std::thread acceptor{[&] {
    accepted_fd = ::accept(listen_fd, nullptr, nullptr);  // then stall
  }};

  // Enough data to overrun the kernel's socket buffers (which absorb the
  // first few MiB invisibly) and the 8 MiB user-space queue.
  const std::size_t n_messages = 128;
  const byte_buffer payload = patterned_payload(256 * 1024);
  std::atomic<bool> all_sent{false};
  std::thread producer{[&] {
    for (std::size_t i = 0; i < n_messages; ++i) {
      sender.send(message{2, 1, 0, payload});
    }
    all_sent = true;
  }};

  std::this_thread::sleep_for(std::chrono::milliseconds{300});
  EXPECT_FALSE(all_sent.load());  // the stalled reader held the producer back
  EXPECT_LE(sender.stats().peak_queue_bytes,
            k_send_queue_limit_bytes + payload.size() + 64);

  // Drain: read and discard everything the writer has to say.
  acceptor.join();
  ASSERT_GE(accepted_fd.load(), 0);
  std::thread drainer{[&] {
    std::uint8_t sink[64 * 1024];
    while (::recv(accepted_fd.load(), sink, sizeof sink, 0) > 0) {
    }
  }};
  producer.join();
  EXPECT_TRUE(all_sent.load());
  sender.flush_sends();
  ::shutdown(accepted_fd.load(), SHUT_RDWR);
  drainer.join();
  ::close(accepted_fd.load());
  ::close(listen_fd);
}

TEST(TcpTest, RunUntilDeliversUntilPredicateHolds) {
  tcp_net bus;
  int count = 0;
  bus.register_node(1, [&](const message&) { ++count; });
  bus.register_node(2, [](const message&) {});
  for (int i = 0; i < 5; ++i) bus.send(message{2, 1, 0, byte_buffer{1}});
  bus.run_until([&] { return count >= 5; }, 10'000);
  EXPECT_EQ(count, 5);
}

TEST(TcpTest, RunUntilThrowsOnDeadline) {
  tcp_net bus;
  bus.register_node(1, [](const message&) {});
  EXPECT_THROW(bus.run_until([] { return false; }, 50), transport_error);
}

TEST(TcpTest, DistributedModeConnectsTwoFabrics) {
  // Two fabrics in one process stand in for two OS processes: each hosts
  // one node of a shared peer map and they talk over real sockets with
  // explicit run_until completion.
  std::map<node_id, tcp_endpoint> map{
      {1, {"127.0.0.1", free_port()}},
      {2, {"127.0.0.1", free_port()}},
  };

  tcp_net fabric1{map};
  tcp_net fabric2{map};
  std::string seen;
  fabric1.register_node(1, [&](const message& m) {
    seen.assign(m.payload.begin(), m.payload.end());
    fabric1.send(message{1, 2, 7, byte_buffer{'o', 'k'}});
  });
  std::string reply;
  fabric2.register_node(2, [&](const message& m) {
    reply.assign(m.payload.begin(), m.payload.end());
  });

  fabric2.send(message{2, 1, 7, byte_buffer{'h', 'i'}});
  fabric1.run_until([&] { return !seen.empty(); }, 15'000);
  fabric2.run_until([&] { return !reply.empty(); }, 15'000);
  EXPECT_EQ(seen, "hi");
  EXPECT_EQ(reply, "ok");
}

// -- raw peers: split, duplicate and malformed messages ----------------------
//
// These tests play the role of a (re)connecting peer writer at the raw
// socket level: each message carries the writer's epoch and per-channel
// sequence number exactly as tcp_net's own writer emits them, so split
// writes, duplicate and stale resends, and malformed heads can be injected
// deterministically. Raw-injected messages bypass the fabric's in-flight
// accounting, so completion is always a run_until(count) predicate — never
// run_until_quiescent().

/// The fixed fields of a message head: epoch, seq, from, to, type.
[[nodiscard]] byte_buffer raw_head_fields(const message& msg, std::uint64_t epoch,
                                          std::uint64_t seq) {
  wire_writer w;
  w.write_u64(epoch);
  w.write_u64(seq);
  w.write_u32(msg.from);
  w.write_u32(msg.to);
  w.write_u16(msg.type);
  return w.take();
}

/// One complete message on the wire — head ‖ payload, the head ending in
/// the payload length — stamped with `epoch`/`seq`: byte-identical to
/// tcp_net's writer output.
[[nodiscard]] byte_buffer raw_frame(const message& msg, std::uint64_t epoch,
                                    std::uint64_t seq) {
  wire_writer w{raw_head_fields(msg, epoch, seq)};
  w.write_bytes(msg.payload);
  return w.take();
}

class raw_peer {
 public:
  explicit raw_peer(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    // Each send leaves as its own segment, so small writes reach the reader
    // as separate pieces.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
  }
  ~raw_peer() {
    if (fd_ >= 0) ::close(fd_);
  }
  /// Writes `bytes`, at most `piece` of them per send(2).
  void write(const byte_buffer& bytes,
             std::size_t piece = std::numeric_limits<std::size_t>::max()) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               std::min(piece, bytes.size() - sent), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }
  /// Ends this side of the connection, as a peer that dies mid-message.
  void close_write() const { ::shutdown(fd_, SHUT_WR); }
  /// True once the fabric has closed the connection: EOF or a reset
  /// arrives within `deadline_ms`.
  [[nodiscard]] bool closed_by_fabric(int deadline_ms) const {
    pollfd waiter{fd_, POLLIN, 0};
    if (::poll(&waiter, 1, deadline_ms) <= 0) return false;
    std::uint8_t byte = 0;
    return ::recv(fd_, &byte, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
};

TEST(TcpRawPeerTest, SevenBytesPerSendReassembleByteExact) {
  // 7-byte sends cut the 27- to 29-byte message head into pieces and start
  // payloads mid-send; the receiver reads the head apart from the payload
  // and the payload straight into the delivered buffer, so every boundary
  // between them occurs here: an empty payload, 1 MiB, and a small message
  // after both.
  tcp_net bus;
  std::vector<message> got;
  bus.register_node(1, [&](const message& m) { got.push_back(m); });

  const std::vector<byte_buffer> payloads{
      byte_buffer{}, patterned_payload(1u << 20), byte_buffer{'t', 'a', 'i', 'l'}};
  byte_buffer stream;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const byte_buffer one = raw_frame(
        message{2, 1, static_cast<std::uint16_t>(4 + i), payloads[i]}, 0x7E, i + 1);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  raw_peer peer{bus.port_of(1)};
  peer.write(stream, 7);
  bus.run_until([&] { return got.size() >= payloads.size(); }, 30'000);
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].from, 2u);
    EXPECT_EQ(got[i].to, 1u);
    EXPECT_EQ(got[i].type, 4 + i);
    EXPECT_EQ(got[i].payload, payloads[i]);
  }
}

TEST(TcpRawPeerTest, MalformedMessagesDropTheConnectionAndDeliverNothing) {
  // Three hostile peers, each on its own connection: a head declaring a
  // 2^40-byte payload (refused before any payload byte is read), a head
  // whose length varint never ends, and a message cut mid-payload. The
  // fabric drops each connection and delivers nothing from it; a later
  // well-formed message still arrives.
  tcp_net bus;
  std::vector<message> got;
  bus.register_node(1, [&](const message& m) { got.push_back(m); });
  const message probe{9, 1, 0, {}};

  {
    wire_writer w{raw_head_fields(probe, 0xBAD, 1)};
    w.write_varint(std::uint64_t{1} << 40);
    raw_peer peer{bus.port_of(1)};
    peer.write(w.take());
    EXPECT_TRUE(peer.closed_by_fabric(10'000)) << "2^40-byte payload";
  }
  {
    byte_buffer head = raw_head_fields(probe, 0xBAD, 2);
    head.insert(head.end(), 32, 0xff);  // every byte continues the varint
    raw_peer peer{bus.port_of(1)};
    peer.write(head);
    EXPECT_TRUE(peer.closed_by_fabric(10'000)) << "endless varint";
  }
  {
    const byte_buffer whole =
        raw_frame(message{9, 1, 0, patterned_payload(4096)}, 0xBAD, 3);
    raw_peer peer{bus.port_of(1)};
    peer.write(byte_buffer(whole.begin(), whole.end() - 1024));
    peer.close_write();
    EXPECT_TRUE(peer.closed_by_fabric(10'000)) << "cut mid-payload";
  }

  raw_peer good{bus.port_of(1)};
  good.write(raw_frame(message{9, 1, 0, byte_buffer{'o', 'k'}}, 0x600D, 1));
  bus.run_until([&] { return !got.empty(); }, 10'000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, (byte_buffer{'o', 'k'}));
  EXPECT_EQ(bus.stats().messages_received, 1u);
}

TEST(TcpDedupTest, DuplicateAndOutOfOrderResendsAreDropped) {
  tcp_net bus;
  std::vector<char> got;
  bus.register_node(1, [&](const message& m) {
    got.push_back(static_cast<char>(m.payload[0]));
  });

  const auto frame = [](char c, std::uint64_t seq) {
    return raw_frame(message{9, 1, 0, byte_buffer{static_cast<std::uint8_t>(c)}},
                     /*epoch=*/0x5157, seq);
  };
  raw_peer peer{bus.port_of(1)};
  peer.write(frame('a', 1));
  peer.write(frame('a', 1));  // duplicate resend of a delivered message
  peer.write(frame('c', 3));
  peer.write(frame('b', 2));  // out-of-order resend: below the high-water mark
  peer.write(frame('d', 4));

  bus.run_until([&] { return got.size() >= 3; }, 10'000);
  EXPECT_EQ(got, (std::vector<char>{'a', 'c', 'd'}));
  EXPECT_EQ(bus.stats().duplicates_dropped, 2u);
}

TEST(TcpDedupTest, DedupStateSurvivesMultipleReconnects) {
  tcp_net bus;
  std::vector<char> got;
  bus.register_node(1, [&](const message& m) {
    got.push_back(static_cast<char>(m.payload[0]));
  });
  const auto frame = [](char c, std::uint64_t epoch, std::uint64_t seq) {
    return raw_frame(message{9, 1, 0, byte_buffer{static_cast<std::uint8_t>(c)}},
                     epoch, seq);
  };

  // Connection 1: a surviving writer delivers seq 1-2, then the link cuts.
  {
    raw_peer conn{bus.port_of(1)};
    conn.write(frame('a', 0xE1, 1));
    conn.write(frame('b', 0xE1, 2));
  }
  bus.run_until([&] { return got.size() >= 2; }, 10'000);

  // Connection 2 (same epoch = same writer after reconnect): the writer
  // cannot know whether seq 2 landed before the cut, so it resends it —
  // the receiver's dedup state must span connections and drop it.
  {
    raw_peer conn{bus.port_of(1)};
    conn.write(frame('b', 0xE1, 2));
    conn.write(frame('c', 0xE1, 3));
  }
  bus.run_until([&] { return got.size() >= 3; }, 10'000);

  // Connection 3, again resending the tail after another cut.
  {
    raw_peer conn{bus.port_of(1)};
    conn.write(frame('c', 0xE1, 3));
    conn.write(frame('d', 0xE1, 4));
  }
  bus.run_until([&] { return got.size() >= 4; }, 10'000);

  // A *restarted* writer gets a fresh epoch: its seq 1 must not collide
  // with the dead incarnation's dedup state.
  {
    raw_peer conn{bus.port_of(1)};
    conn.write(frame('x', 0xE2, 1));
  }
  bus.run_until([&] { return got.size() >= 5; }, 10'000);

  EXPECT_EQ(got, (std::vector<char>{'a', 'b', 'c', 'd', 'x'}));
  EXPECT_EQ(bus.stats().duplicates_dropped, 2u);
}

TEST(TcpTest, RepairBrokenReArmsAChannelAfterPeerRestart) {
  // A writer that exhausts its connect deadline marks the channel broken.
  // Without repair_broken every later send fails; with it, the next send
  // retries from scratch — the durable deployments' "peer is restarting"
  // mode.
  std::map<node_id, tcp_endpoint> map{
      {1, {"127.0.0.1", free_port()}},
      {2, {"127.0.0.1", free_port()}},
  };
  tcp_options opts;
  opts.connect_deadline_ms = 200;  // fail fast: the peer is not up
  opts.repair_broken = true;
  tcp_net sender{map, opts};

  sender.send(message{2, 1, 0, byte_buffer{'l', 'o', 's', 't'}});
  sender.flush_sends();  // writer gives up; the queued message is dropped

  // Peer comes up (the supervisor restarted it); the channel re-arms.
  tcp_net receiver{map};
  std::vector<std::string> got;
  receiver.register_node(1, [&](const message& m) {
    got.emplace_back(m.payload.begin(), m.payload.end());
  });
  sender.send(message{2, 1, 0, byte_buffer{'b', 'a', 'c', 'k'}});
  receiver.run_until([&] { return !got.empty(); }, 15'000);
  EXPECT_EQ(got, (std::vector<std::string>{"back"}));
  sender.flush_sends();
}

TEST(TcpTest, BrokenChannelStaysBrokenWithoutRepair) {
  std::map<node_id, tcp_endpoint> map{
      {1, {"127.0.0.1", free_port()}},
      {2, {"127.0.0.1", free_port()}},
  };
  tcp_options opts;
  opts.connect_deadline_ms = 200;
  tcp_net sender{map, opts};
  sender.send(message{2, 1, 0, byte_buffer{'x'}});
  sender.flush_sends();
  EXPECT_THROW(sender.send(message{2, 1, 0, byte_buffer{'y'}}),
               transport_error);
}

// -- close-on-exec ------------------------------------------------------------
//
// A process that forks node processes (cli::run_distributed_round) must not
// hand them its sockets: an inherited feeder connection stays open after
// the feeder closes, so the DC never reads EOF, and an inherited listener
// keeps its port bound. The flags come from /proc/self/fdinfo, which never
// touches an fd another thread may be closing.

/// This process's open sockets: "socket:[inode]" -> fd.
[[nodiscard]] std::map<std::string, int> open_sockets() {
  std::map<std::string, int> out;
  std::error_code ec;
  for (const auto& fd : std::filesystem::directory_iterator{"/proc/self/fd", ec}) {
    std::error_code gone;  // the fd closed since the listing
    const std::string link = std::filesystem::read_symlink(fd.path(), gone);
    if (!gone && link.starts_with("socket:")) {
      out.emplace(link, std::stoi(fd.path().filename().string()));
    }
  }
  return out;
}

/// The sockets open now but not in `before` that lack O_CLOEXEC; counts
/// into `checked` every one whose flags could be read (one that closed
/// since the listing is skipped).
[[nodiscard]] std::vector<std::string> inheritable_sockets(
    const std::map<std::string, int>& before, std::size_t& checked) {
  std::vector<std::string> out;
  for (const auto& [link, fd] : open_sockets()) {
    if (before.contains(link)) continue;
    std::ifstream info{"/proc/self/fdinfo/" + std::to_string(fd)};
    std::string key;
    while (info >> key && key != "flags:") {
    }
    unsigned long flags = 0;
    if (!(info >> std::oct >> flags)) continue;
    ++checked;
    if ((flags & O_CLOEXEC) == 0) out.push_back(link);
  }
  return out;
}

TEST(CloseOnExecTest, FabricAndEventSocketsAreNotInherited) {
  const std::map<std::string, int> before = open_sockets();

  // A fabric with traffic both ways: two listeners, and an outbound and an
  // accepted inbound connection per direction.
  tcp_net bus;
  bus.register_node(1, [](const message&) {});
  bus.register_node(2, [](const message&) {});
  bus.send(message{2, 1, 0, byte_buffer{'a'}});
  bus.send(message{1, 2, 0, byte_buffer{'b'}});
  bus.run_until_quiescent();
  std::size_t checked = 0;
  EXPECT_EQ(inheritable_sockets(before, checked), std::vector<std::string>{});
  EXPECT_GE(checked, 6u);

  // An event socket: the source's listener, then a feeder whose 8 MiB
  // stream outlasts the socket buffers (at most 4 MiB send plus the
  // receive window), so its connection stays open until the source reads;
  // then the source's accepted connection.
  const std::uint16_t port = free_port();
  tor::event_socket_source source{port, 30'000};
  tor::exit_stream_event stream;
  stream.target = std::string(4096, 'x');
  const std::vector<tor::event> events(2048, tor::event{0, sim_time{0}, stream});
  const std::size_t without_feeder = open_sockets().size();
  std::thread feeder{[&] { tor::stream_events_to_socket("127.0.0.1", port, events); }};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (open_sockets().size() < without_feeder + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  checked = 0;
  EXPECT_EQ(inheritable_sockets(before, checked), std::vector<std::string>{});
  EXPECT_GE(checked, 8u);  // + listener + feeder
  ASSERT_TRUE(source.next().has_value());  // accepts, closes the listener
  checked = 0;
  EXPECT_EQ(inheritable_sockets(before, checked), std::vector<std::string>{});
  EXPECT_GE(checked, 7u);  // + accepted connection
  std::size_t received = 1;
  while (source.next().has_value()) ++received;
  feeder.join();
  EXPECT_EQ(received, events.size());
}

}  // namespace
}  // namespace tormet::net
