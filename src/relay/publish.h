// On-disk publish format for relay stats windows. A relay-embedded stats
// agent accumulates one collection window in RAM and publishes it as a
// single `relay-<relay>-window-<epoch>.pub` file: a CRC record file
// (src/util/file_io.h, the codec the durable op-log uses too) under its own
// magic line, written atomically (tmp + rename), so torn or corrupted
// publishes are rejected loudly instead of silently skewing a tally.
// Record 0 is the window header (relay id, epoch, observed/sampled
// accounting); every later record carries a batch of sampled events: a
// varint count, then per event its relay-local ingest sequence number and
// its length-prefixed tor::event record (tor::append_event_record), so the
// aggregation service can merge many relays' windows back into the DC's
// original event order (PSC ingest is order-dependent; see
// src/relay/aggregator.h).
//
// The per-relay observed/sampled counters ride the header, OUTSIDE the
// event payload: like the TS `.summary` sidecar they are privacy-safe
// operational accounting, never measurement data, and they never perturb
// the tally bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/tor/events.h"
#include "src/util/bytes.h"
#include "src/util/file_io.h"

namespace tormet::relay {

/// Structured publish-file failure: bad magic, truncated record, CRC
/// mismatch, or malformed payload. The aggregator catches this to count a
/// publisher that died mid-write as rejected (never partially ingested).
using publish_error = util::record_error;

/// Per-window accounting carried in record 0, outside the event bytes.
struct pub_header {
  std::uint64_t relay = 0;     ///< publishing relay's id within its DC fleet
  std::uint64_t epoch = 0;     ///< 0-based collection-window index
  std::uint64_t observed = 0;  ///< events offered to the sampler this window
  std::uint64_t sampled = 0;   ///< events that passed the sampler (== size)
};

/// One publishable window: the header plus the sampled events, each paired
/// with its DC-local ingest sequence number (assignment order across the
/// whole fleet, reset per window).
struct pub_window {
  pub_header header;
  std::vector<std::pair<std::uint64_t, tor::event>> events;
};

/// Canonical publish file name: "relay-<relay>-window-<epoch>.pub".
[[nodiscard]] std::string pub_file_name(std::uint64_t relay,
                                        std::uint64_t epoch);

/// Parses a publish file name back into (relay, epoch). Returns false for
/// anything that is not a canonical pub_file_name (the aggregator skips
/// such directory entries).
[[nodiscard]] bool parse_pub_file_name(const std::string& name,
                                       std::uint64_t& relay,
                                       std::uint64_t& epoch);

/// Serializes a window into the framed on-disk byte format.
[[nodiscard]] byte_buffer encode_pub_window(const pub_window& w);

/// Parses framed publish bytes. Throws publish_error on bad magic,
/// truncation, CRC mismatch, or malformed event payloads.
[[nodiscard]] pub_window decode_pub_window(byte_view data);

/// Writes `w` to `dir`/pub_file_name(...) atomically (tmp file + rename):
/// a reader never sees a half-written window, and a crashed publisher's
/// retry simply overwrites with identical bytes. Returns the final path.
std::string write_pub_file_atomic(const pub_window& w, const std::string& dir);

/// Reads and decodes one publish file. Throws publish_error when the file
/// cannot be read or holds malformed content.
[[nodiscard]] pub_window load_pub_file(const std::string& path);

}  // namespace tormet::relay
