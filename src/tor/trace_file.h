// Trace streams: the one reader and the one writer of the event_codec
// stream format (header + records), whatever carries the bytes — a trace
// file on disk or a TCP event socket (src/tor/trace_socket.h). A stream's
// events are non-decreasing in sim time: the writer enforces the order and
// the reader validates it, on files and sockets alike. Reading is
// incremental with a bounded buffer (64 KiB chunks feeding an
// event_decoder), so multi-GB streams never need to fit in memory; writing
// buffers 256 KiB between writes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/tor/event_codec.h"

namespace tormet::tor {

/// Canonical per-DC trace file name inside a trace directory: the
/// orchestration layer maps DC index k to "<dir>/dc-<k>.trace".
[[nodiscard]] std::string trace_file_name(std::size_t dc_index);

/// Writes each DC's events, `per_dc[k]`, as `<dir>/dc-<k>.trace` (the
/// directory must exist). Returns the per-DC event counts.
std::vector<std::size_t> write_trace_files(
    const std::vector<std::vector<event>>& per_dc, const std::string& dir);

class trace_writer {
 public:
  /// Creates (truncating) the trace file at `path` and writes the stream
  /// header. Throws precondition_error when the file cannot be created.
  explicit trace_writer(const std::string& path);
  /// Streams to the connected socket `socket_fd`, which the writer owns
  /// from here on; `label` names the stream in errors.
  trace_writer(int socket_fd, std::string label);
  ~trace_writer();
  trace_writer(const trace_writer&) = delete;
  trace_writer& operator=(const trace_writer&) = delete;

  /// Appends one record. Events must arrive in non-decreasing sim time
  /// (throws precondition_error otherwise — trace order is part of the
  /// format contract).
  void write(const event& ev);

  /// Flushes and closes; throws precondition_error on a short write. The
  /// destructor closes silently for the unwind path.
  void close();

  [[nodiscard]] std::size_t events_written() const noexcept { return count_; }

 private:
  static constexpr std::size_t k_buffer_bytes = 256 << 10;

  void flush_buffer();

  int fd_ = -1;
  bool socket_ = false;  // send() without SIGPIPE instead of write()
  std::string label_;
  byte_buffer buf_;
  std::size_t count_ = 0;
  std::int64_t last_seconds_ = 0;
};

class trace_reader {
 public:
  /// Reads up to `n` bytes into `buf`; returns 0 at end of stream. Throws
  /// when the carrier fails.
  using byte_source =
      std::function<std::size_t(std::uint8_t* buf, std::size_t n)>;

  /// Opens the trace file at `path`. Throws precondition_error when it
  /// cannot be opened.
  explicit trace_reader(const std::string& path);
  /// Reads the stream `source` delivers; `label` names it in errors.
  trace_reader(byte_source source, std::string label);
  virtual ~trace_reader() = default;
  trace_reader(const trace_reader&) = delete;
  trace_reader& operator=(const trace_reader&) = delete;

  /// Next event, or nullopt at clean end of stream. Throws net::wire_error
  /// on corrupt records, a timestamp regression, or a stream that ends
  /// inside a record (truncation).
  [[nodiscard]] std::optional<event> next();

 private:
  static constexpr std::size_t k_chunk_bytes = 64 << 10;

  byte_source source_;
  std::string label_;
  event_decoder decoder_;
  bool eof_ = false;
  std::size_t count_ = 0;
  std::int64_t last_seconds_ = 0;
};

}  // namespace tormet::tor
