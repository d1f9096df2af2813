// Binary (de)serialization for tor::event — the wire/disk format that lets
// measurement events cross process boundaries. One encoded *record* is a
// varint length prefix followed by the event payload (observer, timestamp,
// body tag, body fields); a *trace stream* is an 8-byte versioned header
// followed by records. The same byte format serves trace files
// (src/tor/trace_file.h) and TCP event sockets (src/tor/trace_socket.h):
// anything that can deliver bytes can deliver events.
//
// Decoding is fuzz-tolerant by construction: every primitive read is
// bounds-checked through net::wire_reader, record lengths are capped at
// k_max_event_record_bytes, enum fields are range-validated, and trailing
// payload bytes are rejected — malformed input raises net::wire_error, it
// never crashes or reads out of bounds (tests/event_codec_test.cpp fuzzes
// this). See docs/EVENTS.md for the full format specification.
#pragma once

#include <cstddef>
#include <optional>

#include "src/net/wire.h"
#include "src/tor/events.h"
#include "src/util/bytes.h"

namespace tormet::tor {

/// Trace stream header: magic "TMTRACE" + one version byte. Bump the
/// version on any incompatible record-format change.
inline constexpr std::uint8_t k_trace_version = 1;
inline constexpr std::size_t k_trace_header_bytes = 8;

/// Upper bound on one encoded event payload (generous: the largest field is
/// an exit-stream hostname). Decoders reject larger length prefixes before
/// buffering, so a corrupt length cannot cause an unbounded allocation.
inline constexpr std::size_t k_max_event_record_bytes = 1 << 16;

/// Appends the 8-byte stream header to `out`.
void append_trace_header(byte_buffer& out);

/// Encodes the event payload (no length prefix) into `out`.
void encode_event(net::wire_writer& out, const event& ev);

/// Decodes one event payload and requires the reader to be fully consumed.
/// Throws net::wire_error on truncation, unknown body tags, out-of-range
/// enum values, or trailing bytes.
[[nodiscard]] event decode_event(net::wire_reader& in);

/// Appends one length-prefixed record (varint payload length + payload).
void append_event_record(byte_buffer& out, const event& ev);

/// Reads one length-prefixed record from `in`, the inverse of
/// append_event_record. Throws net::wire_error on truncation or a corrupt
/// payload.
[[nodiscard]] event read_event_record(net::wire_reader& in);

/// Incremental record decoder: feed() arbitrary byte chunks (file blocks,
/// socket reads), pop events with next(). The buffer is compacted as
/// records complete, so memory stays bounded by the chunk size plus one
/// partial record. Expects the stream header first.
class event_decoder {
 public:
  void feed(byte_view chunk);

  /// Next complete event, or nullopt when more bytes are needed. Throws
  /// net::wire_error on a malformed header, oversized record, or corrupt
  /// payload.
  [[nodiscard]] std::optional<event> next();

  /// True when every fed byte has been consumed — the only clean place for
  /// a stream to end. A partial record at EOF is a truncation error.
  [[nodiscard]] bool at_record_boundary() const noexcept {
    return pos_ == buf_.size() && saw_header_;
  }

 private:
  byte_buffer buf_;
  std::size_t pos_ = 0;
  bool saw_header_ = false;
};

}  // namespace tormet::tor
