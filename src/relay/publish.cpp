#include "src/relay/publish.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>

#include "src/net/wire.h"
#include "src/tor/event_codec.h"
#include "src/util/file_io.h"

namespace tormet::relay {

namespace {

constexpr std::string_view k_pub_magic = "tormet-relay-pub-v1\n";

/// Soft cap on one event record's payload: a new record starts once the
/// current one crosses this, so a torn write near the file tail loses at
/// most ~1 MiB of frames (and the CRC catches the tear regardless).
constexpr std::size_t k_record_soft_bytes = 1u << 20;

/// Fewest bytes one batch entry can take: the sequence and record-length
/// varints plus an event's observer varint, i64 time and body tag. Bounds
/// the events a header may make the decoder reserve room for.
constexpr std::size_t k_min_entry_bytes = 12;

[[noreturn]] void pub_fail(const std::string& what) {
  throw publish_error{"relay publish: " + what};
}

}  // namespace

std::string pub_file_name(std::uint64_t relay, std::uint64_t epoch) {
  std::ostringstream out;
  out << "relay-" << relay << "-window-" << epoch << ".pub";
  return out.str();
}

bool parse_pub_file_name(const std::string& name, std::uint64_t& relay,
                         std::uint64_t& epoch) {
  constexpr std::string_view prefix = "relay-";
  constexpr std::string_view suffix = ".pub";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string body =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  const std::size_t sep = body.find("-window-");
  if (sep == std::string::npos) return false;
  const std::string relay_str = body.substr(0, sep);
  const std::string epoch_str = body.substr(sep + std::strlen("-window-"));
  const auto parse_u64 = [](const std::string& s, std::uint64_t& out) {
    if (s.empty() || s.size() > 19) return false;
    std::uint64_t v = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
  };
  return parse_u64(relay_str, relay) && parse_u64(epoch_str, epoch);
}

byte_buffer encode_pub_window(const pub_window& w) {
  byte_buffer out{k_pub_magic.begin(), k_pub_magic.end()};
  {
    net::wire_writer header;
    header.write_u64(w.header.relay);
    header.write_u64(w.header.epoch);
    header.write_u64(w.header.observed);
    header.write_u64(w.header.sampled);
    util::append_record(out, header.data());
  }
  // A batch record: the varint entry count, then per entry the varint
  // sequence number and the event's length-prefixed record.
  byte_buffer batch;
  std::size_t batch_count = 0;
  const auto flush_batch = [&] {
    if (batch_count == 0) return;
    byte_buffer payload;
    net::append_varint(payload, batch_count);
    payload.insert(payload.end(), batch.begin(), batch.end());
    util::append_record(out, payload);
    batch.clear();
    batch_count = 0;
  };
  for (const auto& [seq, ev] : w.events) {
    net::append_varint(batch, seq);
    tor::append_event_record(batch, ev);
    ++batch_count;
    if (batch.size() >= k_record_soft_bytes) flush_batch();
  }
  flush_batch();
  return out;
}

pub_window decode_pub_window(byte_view data) {
  util::record_reader records{data, k_pub_magic, "relay publish"};
  pub_window w;
  {
    net::wire_reader in{records.next()};
    try {
      w.header.relay = in.read_u64();
      w.header.epoch = in.read_u64();
      w.header.observed = in.read_u64();
      w.header.sampled = in.read_u64();
      in.expect_end();
    } catch (const net::wire_error& e) {
      pub_fail(std::string{"malformed header: "} + e.what());
    }
  }
  w.events.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      w.header.sampled, records.remaining() / k_min_entry_bytes)));
  while (!records.done()) {
    net::wire_reader in{records.next()};
    try {
      const std::uint64_t count = in.read_varint();
      if (count > w.header.sampled) pub_fail("batch count exceeds header");
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t seq = in.read_varint();
        w.events.emplace_back(seq, tor::read_event_record(in));
      }
      in.expect_end();
    } catch (const net::wire_error& e) {
      pub_fail(std::string{"malformed event batch: "} + e.what());
    }
  }
  if (w.events.size() != w.header.sampled) {
    pub_fail("sampled count does not match event records");
  }
  return w;
}

std::string write_pub_file_atomic(const pub_window& w,
                                  const std::string& dir) {
  const std::string path = dir + "/" + pub_file_name(w.header.relay,
                                                     w.header.epoch);
  util::write_file_atomic(path, encode_pub_window(w));
  return path;
}

pub_window load_pub_file(const std::string& path) {
  const std::optional<std::string> bytes = util::read_file(path);
  if (!bytes.has_value()) pub_fail("cannot read publish file " + path);
  return decode_pub_window(as_bytes(*bytes));
}

}  // namespace tormet::relay
