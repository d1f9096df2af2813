// Event-trace files: streaming reader/writer over the event_codec record
// format. A trace file is one trace stream (header + records) whose events
// are non-decreasing in sim time — the writer enforces the ordering and
// the reader validates it. Reading is incremental with a bounded
// buffer (fixed-size file chunks feeding an event_decoder), so multi-GB
// traces never need to fit in memory.
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "src/tor/event_codec.h"

namespace tormet::tor {

/// Canonical per-DC trace file name inside a trace directory: the
/// orchestration layer maps DC index k to "<dir>/dc-<k>.trace".
[[nodiscard]] std::string trace_file_name(std::size_t dc_index);

class trace_writer {
 public:
  /// Opens `path` (truncating) and writes the stream header. Throws
  /// precondition_error when the file cannot be created.
  explicit trace_writer(const std::string& path);
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
  void flush_buffer();

  std::FILE* file_ = nullptr;
  std::string path_;
  byte_buffer buf_;
  std::size_t count_ = 0;
  std::int64_t last_seconds_ = 0;
};

class trace_reader {
 public:
  /// Opens `path`. Throws precondition_error when the file cannot be read.
  explicit trace_reader(const std::string& path);
  ~trace_reader();
  trace_reader(const trace_reader&) = delete;
  trace_reader& operator=(const trace_reader&) = delete;

  /// Next event, or nullopt at clean end of stream. Throws net::wire_error
  /// on corrupt records, a timestamp regression, or a file that ends inside
  /// a record (truncation).
  [[nodiscard]] std::optional<event> next();

  [[nodiscard]] std::size_t events_read() const noexcept { return count_; }

 private:
  static constexpr std::size_t k_chunk_bytes = 64 << 10;

  std::FILE* file_ = nullptr;
  event_decoder decoder_;
  bool eof_ = false;
  std::size_t count_ = 0;
  bool saw_event_ = false;
  std::int64_t last_seconds_ = 0;
};

}  // namespace tormet::tor
