#include "src/tor/event_codec.h"

#include <algorithm>
#include <array>
#include <limits>
#include <type_traits>

namespace tormet::tor {

namespace {

constexpr std::array<std::uint8_t, 7> k_magic = {'T', 'M', 'T', 'R',
                                                 'A', 'C', 'E'};
static_assert(k_magic.size() + 1 == k_trace_header_bytes);

/// Body tags are the variant indices of tor::event_body — the variant order
/// in events.h is part of the wire format.
enum class body_tag : std::uint8_t {
  entry_connection = 0,
  entry_circuit = 1,
  entry_data = 2,
  exit_stream = 3,
  exit_data = 4,
  hsdir_publish = 5,
  hsdir_fetch = 6,
  rend_circuit = 7,
};
constexpr std::uint8_t k_max_body_tag = 7;

// encode_event writes ev.body.index() while decode_event switches on the
// tags above — pin the mapping so reordering the variant in events.h is a
// compile error, not silent wire corruption.
template <body_tag Tag, typename Body>
inline constexpr bool tag_matches =
    std::is_same_v<std::variant_alternative_t<static_cast<std::size_t>(Tag),
                                              event_body>,
                   Body>;
static_assert(tag_matches<body_tag::entry_connection, entry_connection_event>);
static_assert(tag_matches<body_tag::entry_circuit, entry_circuit_event>);
static_assert(tag_matches<body_tag::entry_data, entry_data_event>);
static_assert(tag_matches<body_tag::exit_stream, exit_stream_event>);
static_assert(tag_matches<body_tag::exit_data, exit_data_event>);
static_assert(tag_matches<body_tag::hsdir_publish, hsdir_publish_event>);
static_assert(tag_matches<body_tag::hsdir_fetch, hsdir_fetch_event>);
static_assert(tag_matches<body_tag::rend_circuit, rend_circuit_event>);
static_assert(std::variant_size_v<event_body> == k_max_body_tag + 1,
              "new event variants need a codec tag, body encoding, and a "
              "docs/EVENTS.md row");

[[nodiscard]] std::uint8_t checked_enum(net::wire_reader& in,
                                        std::uint8_t max_value,
                                        const char* what) {
  const std::uint8_t v = in.read_u8();
  if (v > max_value) {
    throw net::wire_error{std::string{"event decode: out-of-range "} + what};
  }
  return v;
}

}  // namespace

void append_trace_header(byte_buffer& out) {
  out.insert(out.end(), k_magic.begin(), k_magic.end());
  out.push_back(k_trace_version);
}

void encode_event(net::wire_writer& out, const event& ev) {
  out.write_varint(ev.observer);
  out.write_i64(ev.at.seconds);
  out.write_u8(static_cast<std::uint8_t>(ev.body.index()));
  std::visit(
      [&out](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, entry_connection_event>) {
          out.write_u32(body.client_ip);
        } else if constexpr (std::is_same_v<T, entry_circuit_event>) {
          out.write_u32(body.client_ip);
          out.write_u8(static_cast<std::uint8_t>(body.kind));
        } else if constexpr (std::is_same_v<T, entry_data_event>) {
          out.write_u32(body.client_ip);
          out.write_varint(body.bytes);
        } else if constexpr (std::is_same_v<T, exit_stream_event>) {
          out.write_u8(static_cast<std::uint8_t>(body.kind));
          out.write_u8(body.is_initial ? 1 : 0);
          out.write_u16(body.port);
          out.write_string(body.target);
        } else if constexpr (std::is_same_v<T, exit_data_event>) {
          out.write_varint(body.bytes);
        } else if constexpr (std::is_same_v<T, hsdir_publish_event>) {
          out.write_string(body.address.value);
        } else if constexpr (std::is_same_v<T, hsdir_fetch_event>) {
          out.write_string(body.address.value);
          out.write_u8(static_cast<std::uint8_t>(body.outcome));
        } else if constexpr (std::is_same_v<T, rend_circuit_event>) {
          out.write_u8(static_cast<std::uint8_t>(body.outcome));
          out.write_varint(body.payload_cells);
        }
      },
      ev.body);
}

event decode_event(net::wire_reader& in) {
  event ev;
  const std::uint64_t observer = in.read_varint();
  if (observer > std::numeric_limits<relay_id>::max()) {
    throw net::wire_error{"event decode: observer id out of range"};
  }
  ev.observer = static_cast<relay_id>(observer);
  ev.at.seconds = in.read_i64();
  const std::uint8_t tag = checked_enum(in, k_max_body_tag, "body tag");
  switch (static_cast<body_tag>(tag)) {
    case body_tag::entry_connection: {
      entry_connection_event b;
      b.client_ip = in.read_u32();
      ev.body = b;
      break;
    }
    case body_tag::entry_circuit: {
      entry_circuit_event b;
      b.client_ip = in.read_u32();
      b.kind = static_cast<circuit_kind>(checked_enum(
          in, static_cast<std::uint8_t>(circuit_kind::rendezvous),
          "circuit kind"));
      ev.body = b;
      break;
    }
    case body_tag::entry_data: {
      entry_data_event b;
      b.client_ip = in.read_u32();
      b.bytes = in.read_varint();
      ev.body = b;
      break;
    }
    case body_tag::exit_stream: {
      exit_stream_event b;
      b.kind = static_cast<address_kind>(checked_enum(
          in, static_cast<std::uint8_t>(address_kind::ipv6), "address kind"));
      b.is_initial = checked_enum(in, 1, "is_initial flag") == 1;
      b.port = in.read_u16();
      b.target = in.read_string();
      ev.body = std::move(b);
      break;
    }
    case body_tag::exit_data: {
      exit_data_event b;
      b.bytes = in.read_varint();
      ev.body = b;
      break;
    }
    case body_tag::hsdir_publish: {
      hsdir_publish_event b;
      b.address.value = in.read_string();
      ev.body = std::move(b);
      break;
    }
    case body_tag::hsdir_fetch: {
      hsdir_fetch_event b;
      b.address.value = in.read_string();
      b.outcome = static_cast<fetch_outcome>(checked_enum(
          in, static_cast<std::uint8_t>(fetch_outcome::malformed),
          "fetch outcome"));
      ev.body = std::move(b);
      break;
    }
    case body_tag::rend_circuit: {
      rend_circuit_event b;
      b.outcome = static_cast<rend_outcome>(checked_enum(
          in, static_cast<std::uint8_t>(rend_outcome::failed_expired),
          "rend outcome"));
      b.payload_cells = in.read_varint();
      ev.body = b;
      break;
    }
  }
  in.expect_end();
  return ev;
}

void append_event_record(byte_buffer& out, const event& ev) {
  // Encode the payload in place, append its varint length, then rotate the
  // length in front of it: no buffer per record.
  const std::size_t start = out.size();
  net::wire_writer payload{std::move(out)};
  encode_event(payload, ev);
  out = payload.take();
  const std::size_t len = out.size() - start;
  net::append_varint(out, len);
  std::rotate(out.begin() + static_cast<std::ptrdiff_t>(start),
              out.begin() + static_cast<std::ptrdiff_t>(start + len),
              out.end());
}

event read_event_record(net::wire_reader& in) {
  net::wire_reader payload{in.read_bytes_view()};
  return decode_event(payload);
}

void event_decoder::feed(byte_view chunk) {
  // Compact before growing: everything before pos_ has been consumed.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64 << 10)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
}

std::optional<event> event_decoder::next() {
  if (!saw_header_) {
    if (buf_.size() - pos_ < k_trace_header_bytes) return std::nullopt;
    if (!std::equal(k_magic.begin(), k_magic.end(), buf_.begin() + pos_)) {
      throw net::wire_error{"trace stream: bad magic"};
    }
    const std::uint8_t version = buf_[pos_ + k_magic.size()];
    if (version != k_trace_version) {
      throw net::wire_error{"trace stream: unsupported version " +
                            std::to_string(version)};
    }
    pos_ += k_trace_header_bytes;
    saw_header_ = true;
  }

  // A record is complete once its varint length prefix ended (a byte
  // without the continuation bit, within a varint's 10 bytes) and its
  // payload arrived. The cap is checked first, so a corrupt length is
  // rejected before anything is buffered for it.
  const byte_view avail{buf_.data() + pos_, buf_.size() - pos_};
  const byte_view prefix = avail.first(std::min<std::size_t>(avail.size(), 10));
  const bool prefix_open = std::none_of(
      prefix.begin(), prefix.end(), [](std::uint8_t b) { return b < 0x80; });
  if (prefix_open && prefix.size() < 10) return std::nullopt;  // need more
  net::wire_reader in{avail};
  const std::uint64_t len = in.read_varint();
  if (len > k_max_event_record_bytes) {
    throw net::wire_error{"trace stream: record length " + std::to_string(len) +
                          " exceeds cap"};
  }
  if (in.remaining() < len) return std::nullopt;  // need more
  net::wire_reader record{avail};
  event ev = read_event_record(record);
  pos_ += avail.size() - record.remaining();
  return ev;
}

}  // namespace tormet::tor
