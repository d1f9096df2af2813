// Event codec + trace stream tests: exact round-trips for every event
// variant, incremental decoding across arbitrary chunk boundaries, file
// round-trips, and — the property the format exists for — rejection of
// truncated or corrupt input with wire_error instead of crashes or
// out-of-bounds reads (including a randomized corruption fuzz pass).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "src/crypto/sha256.h"
#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"
#include "src/tor/trace_socket.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace tormet::tor {
namespace {

[[nodiscard]] std::vector<event> sample_events() {
  std::vector<event> events;
  events.push_back({7, sim_time{0}, entry_connection_event{0xc0a80101}});
  events.push_back(
      {7, sim_time{1}, entry_circuit_event{42, circuit_kind::directory}});
  events.push_back({9, sim_time{1}, entry_data_event{42, 123'456'789}});
  events.push_back({9, sim_time{2},
                    exit_stream_event{address_kind::hostname, true, 443,
                                      "www.example.co.uk"}});
  events.push_back(
      {9, sim_time{2}, exit_stream_event{address_kind::ipv4, false, 80,
                                         "192.0.2.7"}});
  events.push_back({11, sim_time{3}, exit_data_event{1 << 20}});
  events.push_back(
      {13, sim_time{4}, hsdir_publish_event{onion_address{"abcdef.onion"}}});
  events.push_back({13, sim_time{5},
                    hsdir_fetch_event{onion_address{"ghijkl.onion"},
                                      fetch_outcome::not_found}});
  events.push_back({13, sim_time{5},
                    hsdir_fetch_event{onion_address{""},
                                      fetch_outcome::malformed}});
  events.push_back({15, sim_time{6},
                    rend_circuit_event{rend_outcome::failed_expired, 0}});
  events.push_back(
      {15, sim_time{9}, rend_circuit_event{rend_outcome::succeeded, 1477}});
  return events;
}

void expect_equal(const event& a, const event& b) {
  EXPECT_EQ(a.observer, b.observer);
  EXPECT_EQ(a.at.seconds, b.at.seconds);
  ASSERT_EQ(a.body.index(), b.body.index());
  std::visit(
      [&b]<typename T>(const T& lhs) {
        const T& rhs = std::get<T>(b.body);
        if constexpr (std::is_same_v<T, entry_connection_event>) {
          EXPECT_EQ(lhs.client_ip, rhs.client_ip);
        } else if constexpr (std::is_same_v<T, entry_circuit_event>) {
          EXPECT_EQ(lhs.client_ip, rhs.client_ip);
          EXPECT_EQ(lhs.kind, rhs.kind);
        } else if constexpr (std::is_same_v<T, entry_data_event>) {
          EXPECT_EQ(lhs.client_ip, rhs.client_ip);
          EXPECT_EQ(lhs.bytes, rhs.bytes);
        } else if constexpr (std::is_same_v<T, exit_stream_event>) {
          EXPECT_EQ(lhs.kind, rhs.kind);
          EXPECT_EQ(lhs.is_initial, rhs.is_initial);
          EXPECT_EQ(lhs.port, rhs.port);
          EXPECT_EQ(lhs.target, rhs.target);
        } else if constexpr (std::is_same_v<T, exit_data_event>) {
          EXPECT_EQ(lhs.bytes, rhs.bytes);
        } else if constexpr (std::is_same_v<T, hsdir_publish_event>) {
          EXPECT_EQ(lhs.address.value, rhs.address.value);
        } else if constexpr (std::is_same_v<T, hsdir_fetch_event>) {
          EXPECT_EQ(lhs.address.value, rhs.address.value);
          EXPECT_EQ(lhs.outcome, rhs.outcome);
        } else if constexpr (std::is_same_v<T, rend_circuit_event>) {
          EXPECT_EQ(lhs.outcome, rhs.outcome);
          EXPECT_EQ(lhs.payload_cells, rhs.payload_cells);
        }
      },
      a.body);
}

[[nodiscard]] byte_buffer encode_stream(const std::vector<event>& events) {
  byte_buffer buf;
  append_trace_header(buf);
  for (const event& ev : events) append_event_record(buf, ev);
  return buf;
}

class temp_dir {
 public:
  temp_dir() {
    char tmpl[] = "/tmp/tormet-codec-XXXXXX";
    path_ = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

TEST(EventCodecTest, EveryVariantRoundTrips) {
  for (const event& ev : sample_events()) {
    net::wire_writer out;
    encode_event(out, ev);
    net::wire_reader in{out.data()};
    expect_equal(decode_event(in), ev);
  }
}

TEST(EventCodecTest, DecoderHandlesArbitraryChunkBoundaries) {
  const std::vector<event> events = sample_events();
  const byte_buffer stream = encode_stream(events);
  // Feed in every chunk size from 1 byte (worst case: records split across
  // header, length prefix, and payload) to the whole stream.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, stream.size()}) {
    event_decoder decoder;
    std::vector<event> decoded;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      decoder.feed(byte_view{stream.data() + off, n});
      while (const std::optional<event> ev = decoder.next()) {
        decoded.push_back(*ev);
      }
    }
    ASSERT_EQ(decoded.size(), events.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < events.size(); ++i) {
      expect_equal(decoded[i], events[i]);
    }
    EXPECT_TRUE(decoder.at_record_boundary());
  }
}

TEST(EventCodecTest, RejectsBadMagicAndVersion) {
  byte_buffer stream = encode_stream(sample_events());
  {
    byte_buffer bad = stream;
    bad[0] ^= 0xff;
    event_decoder decoder;
    decoder.feed(bad);
    EXPECT_THROW((void)decoder.next(), net::wire_error);
  }
  {
    byte_buffer bad = stream;
    bad[k_trace_header_bytes - 1] = k_trace_version + 1;
    event_decoder decoder;
    decoder.feed(bad);
    EXPECT_THROW((void)decoder.next(), net::wire_error);
  }
}

TEST(EventCodecTest, RejectsOutOfRangeEnumsAndTags) {
  event ev{3, sim_time{1}, entry_circuit_event{1, circuit_kind::general}};
  net::wire_writer out;
  encode_event(out, ev);
  byte_buffer payload = out.data();

  // Byte layout: varint observer (1) + i64 time (8) + tag (1) + ip (4) +
  // kind (1). Corrupt the tag and the trailing enum.
  {
    byte_buffer bad = payload;
    bad[9] = 200;  // body tag
    net::wire_reader in{bad};
    EXPECT_THROW((void)decode_event(in), net::wire_error);
  }
  {
    byte_buffer bad = payload;
    bad.back() = 99;  // circuit kind
    net::wire_reader in{bad};
    EXPECT_THROW((void)decode_event(in), net::wire_error);
  }
  {
    byte_buffer bad = payload;
    bad.push_back(0);  // trailing garbage
    net::wire_reader in{bad};
    EXPECT_THROW((void)decode_event(in), net::wire_error);
  }
}

TEST(EventCodecTest, RejectsOversizedRecordLengthWithoutBuffering) {
  byte_buffer stream;
  append_trace_header(stream);
  // Record claiming ~1 GiB: must throw as soon as the prefix is complete,
  // not wait for a gigabyte of input.
  net::wire_writer prefix;
  prefix.write_varint(1ull << 30);
  stream.insert(stream.end(), prefix.data().begin(), prefix.data().end());
  event_decoder decoder;
  decoder.feed(stream);
  EXPECT_THROW((void)decoder.next(), net::wire_error);
}

TEST(EventCodecTest, CorruptionFuzzNeverCrashes) {
  const byte_buffer stream = encode_stream(sample_events());
  rng r{2024};
  for (int round = 0; round < 500; ++round) {
    byte_buffer fuzzed = stream;
    const std::size_t flips = 1 + r.below(8);
    for (std::size_t i = 0; i < flips; ++i) {
      fuzzed[r.below(fuzzed.size())] ^= static_cast<std::uint8_t>(1 + r.below(255));
    }
    if (r.bernoulli(0.3)) fuzzed.resize(r.below(fuzzed.size()) + 1);
    event_decoder decoder;
    decoder.feed(fuzzed);
    try {
      while (decoder.next().has_value()) {
      }
      // Either a clean partial decode (remaining bytes form an incomplete
      // record) or full decode — both acceptable; no crash, no hang.
    } catch (const net::wire_error&) {
      // Rejected — the expected outcome for most corruptions.
    }
  }
}

TEST(TraceFileTest, WritesAndReadsBack) {
  const temp_dir dir;
  const std::vector<event> events = sample_events();
  {
    trace_writer writer{dir.file("t.trace")};
    for (const event& ev : events) writer.write(ev);
    writer.close();
    EXPECT_EQ(writer.events_written(), events.size());
  }
  trace_reader reader{dir.file("t.trace")};
  std::vector<event> decoded;
  while (const std::optional<event> ev = reader.next()) decoded.push_back(*ev);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_equal(decoded[i], events[i]);
  }
}

/// Known-answer bytes: the trace file of sample_events().
TEST(TraceFileTest, FileBytesMatchKnownDigest) {
  const temp_dir dir;
  {
    trace_writer writer{dir.file("t.trace")};
    for (const event& ev : sample_events()) writer.write(ev);
    writer.close();
  }
  std::FILE* f = std::fopen(dir.file("t.trace").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  byte_buffer bytes(4096);
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  EXPECT_EQ(bytes, encode_stream(sample_events()));
  EXPECT_EQ(to_hex(crypto::sha256(bytes)),
            "017f7ac76dd1d639ea4ad31d0201e8cd6172834fcbca45c40b0a8feefb0ec941");
}

TEST(TraceFileTest, WriterEnforcesTimeOrder) {
  const temp_dir dir;
  trace_writer writer{dir.file("t.trace")};
  writer.write({1, sim_time{10}, exit_data_event{1}});
  EXPECT_THROW(writer.write({1, sim_time{9}, exit_data_event{1}}),
               precondition_error);
}

TEST(TraceFileTest, WriterRefusesRecordOverReaderCap) {
  const temp_dir dir;
  const std::vector<event> events = sample_events();
  {
    trace_writer writer{dir.file("t.trace")};
    for (const event& ev : events) writer.write(ev);
    // Every reader rejects a record over the cap, so the writer must not
    // leave one behind: it throws and keeps none of the record's bytes.
    const event oversized{
        9, sim_time{9},
        exit_stream_event{address_kind::hostname, false, 443,
                          std::string(70'000, 'a')}};
    EXPECT_THROW(writer.write(oversized), precondition_error);
    EXPECT_EQ(writer.events_written(), events.size());
    writer.close();
  }
  trace_reader reader{dir.file("t.trace")};
  std::vector<event> decoded;
  while (const std::optional<event> ev = reader.next()) decoded.push_back(*ev);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_equal(decoded[i], events[i]);
  }
}

TEST(TraceFileTest, ReaderRejectsTruncatedFile) {
  const temp_dir dir;
  {
    trace_writer writer{dir.file("t.trace")};
    for (const event& ev : sample_events()) writer.write(ev);
    writer.close();
  }
  const auto full_size = std::filesystem::file_size(dir.file("t.trace"));
  std::filesystem::resize_file(dir.file("t.trace"), full_size - 3);
  trace_reader reader{dir.file("t.trace")};
  EXPECT_THROW(
      [&] {
        while (reader.next().has_value()) {
        }
      }(),
      net::wire_error);
}

TEST(TraceFileTest, ReaderRejectsTimestampRegression) {
  const temp_dir dir;
  // Build a stream with a regression by hand (the writer refuses to).
  byte_buffer stream;
  append_trace_header(stream);
  append_event_record(stream, {1, sim_time{5}, exit_data_event{1}});
  append_event_record(stream, {1, sim_time{4}, exit_data_event{1}});
  {
    std::FILE* f = std::fopen(dir.file("t.trace").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stream.data(), 1, stream.size(), f), stream.size());
    std::fclose(f);
  }
  trace_reader reader{dir.file("t.trace")};
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_THROW((void)reader.next(), net::wire_error);
}

TEST(TraceSocketTest, StreamsEventsOverTcp) {
  const std::vector<event> events = sample_events();
  // Receiver listens on an OS-assigned-free-ish port; retry a few ports to
  // dodge collisions on busy CI machines.
  std::unique_ptr<event_socket_source> source;
  std::uint16_t port = 0;
  for (std::uint16_t candidate = 19'473; candidate < 19'573; ++candidate) {
    try {
      source = std::make_unique<event_socket_source>(candidate);
      port = candidate;
      break;
    } catch (const precondition_error&) {
    }
  }
  ASSERT_NE(source, nullptr);

  std::thread feeder{[&events, port] {
    stream_events_to_socket("127.0.0.1", port, events);
  }};
  std::vector<event> received;
  while (const std::optional<event> ev = source->next()) {
    received.push_back(*ev);
  }
  feeder.join();
  ASSERT_EQ(received.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_equal(received[i], events[i]);
  }
}

}  // namespace
}  // namespace tormet::tor
