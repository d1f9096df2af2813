// The file formats several layers share, each read and written in one
// place:
//
//  - Whole files. read_file() reads one; write_file_atomic() replaces one
//    through a temp file and a rename, so a reader never sees it half
//    written. They serve the tally and its .summary sidecar, relay .pub
//    windows, deployment plans, ground-truth sidecars and the op-log.
//  - CRC record files. A magic line, then records framed as
//    [u32 len][u32 crc32][payload] (little endian), each payload at most
//    k_max_record_bytes. The TS op-log (src/util/op_log.h) and relay .pub
//    windows (src/relay/publish.h) are record files. Reading is strict: bad
//    magic, a truncated frame, an oversized length or a CRC mismatch throws
//    record_error. Damaged durable state fails loudly; it is never
//    silently misread.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/util/bytes.h"

namespace tormet::util {

/// A record file is damaged: bad magic, a truncated frame, an oversized
/// length, a CRC mismatch, or a payload its owner cannot parse.
class record_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A record payload larger than this is a corrupt length, not data:
/// bounding it keeps a flipped length byte from allocating gigabytes.
inline constexpr std::uint32_t k_max_record_bytes = 64u << 20;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`. Exposed so tests
/// can frame valid records and fuzzers can target the checksum.
[[nodiscard]] std::uint32_t crc32(byte_view data);

/// Appends one framed record ([u32 len][u32 crc][payload]) to `out`.
void append_record(byte_buffer& out, byte_view payload);

/// Walks the records of a record file held in memory.
class record_reader {
 public:
  /// Checks that `file` starts with `magic`; `label` names the file in
  /// errors. `file` must outlive the reader.
  record_reader(byte_view file, std::string_view magic, std::string label);

  /// True once every record has been read.
  [[nodiscard]] bool done() const noexcept { return pos_ == file_.size(); }
  /// Bytes not yet read, frames included.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return file_.size() - pos_;
  }

  /// The next record's payload, a view into the file. Throws record_error
  /// on a truncated frame, an oversized length or a CRC mismatch.
  [[nodiscard]] byte_view next();

 private:
  [[noreturn]] void fail(const char* what) const;

  byte_view file_;
  std::size_t pos_ = 0;
  std::string label_;
};

/// The whole file at `path`, or nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Replaces `path` with `content` atomically: writes `path`.tmp, then
/// renames it over `path`. Throws precondition_error when either step
/// fails.
void write_file_atomic(const std::string& path, byte_view content);

}  // namespace tormet::util
