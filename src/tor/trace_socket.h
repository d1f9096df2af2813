// Event streaming over TCP: the trace stream a trace file holds, carried
// over a socket so a data collector can ingest live events from a separate
// feeder process. Both ends are the trace-file reader and writer
// (src/tor/trace_file.h) over the connection, so a socket stream gets the
// same truncation, corruption and time-order checks as a file. The
// receiving side listens, accepts exactly one feeder, and decodes
// incrementally; the feeding side connects (with retry, so start order
// does not matter) and streams a trace file or an in-memory event batch.
// End of stream is the feeder closing its side at a record boundary.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"

namespace tormet::tor {

/// Receiving side of one event socket: a trace_reader over the one feeder
/// connection it accepts. Bind/listen happens in the constructor (so a
/// feeder's connect retry can land even before the first next() call);
/// accept happens lazily on the first next().
class event_socket_source final : public trace_reader {
 public:
  /// Listens on 127.0.0.1:`port`. Throws precondition_error when the port
  /// cannot be bound. `timeout_ms` bounds the wait for the feeder to
  /// connect (next() then throws precondition_error) and each receive
  /// (next() then throws net::wire_error); 0 waits forever. An ingesting
  /// node so honors its round deadline instead of hanging when no feeder
  /// ever shows up.
  explicit event_socket_source(std::uint16_t port, int timeout_ms = 0);
};

/// Feeder: connects to host:port (retrying until `connect_timeout_ms`
/// elapses) and streams `events` as one trace stream, then closes. Returns
/// the number of events sent. Throws on connect timeout, send failure, or
/// events out of sim-time order.
std::size_t stream_events_to_socket(const std::string& host, std::uint16_t port,
                                    std::span<const event> events,
                                    int connect_timeout_ms = 10'000);

/// Feeder from a trace file: streams the file's events over the socket
/// (re-encoding through the codec, which also validates the file).
std::size_t stream_trace_to_socket(const std::string& host, std::uint16_t port,
                                   const std::string& trace_path,
                                   int connect_timeout_ms = 10'000);

}  // namespace tormet::tor
