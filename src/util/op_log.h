// Write-ahead op-log for crash-recoverable rounds: an append-only CRC
// record file (src/util/file_io.h). A process appends one record per
// durable state transition; on restart it replays the records in order to
// its pre-crash state and resumes the schedule. Payloads are opaque bytes —
// the protocol layer owns their encoding; the record codec owns framing
// and integrity, and this module owns durability.
//
// On-disk layout under the store directory:
//
//   oplog       "tormet-oplog-v1\n" then records of [u32 len][u32 crc][payload]
//
// Loading is strict: any truncated, oversized, or CRC-mismatched input
// throws op_log_error — corrupt durable state must fail loudly, never
// silently misrecover.
#pragma once

#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/file_io.h"

namespace tormet::util {

/// Structured recovery failure: the op-log on disk is truncated,
/// corrupted, or otherwise unreadable.
using op_log_error = record_error;

class durable_store {
 public:
  /// Opens (creating the directory if needed) and replays the store at
  /// `dir`. Throws op_log_error on any malformed on-disk state.
  explicit durable_store(std::string dir);
  ~durable_store();
  durable_store(const durable_store&) = delete;
  durable_store& operator=(const durable_store&) = delete;

  /// Every record the log held at open time, in append order.
  [[nodiscard]] const std::vector<byte_buffer>& recovered() const noexcept {
    return recovered_;
  }

  /// Appends one CRC-framed record and fdatasync()s it: the record
  /// survives a process crash (_Exit / SIGKILL) and reaches the disk
  /// before append returns.
  void append(byte_view record);

 private:
  std::string path_;  // <dir>/oplog
  std::vector<byte_buffer> recovered_;
  int log_fd_ = -1;
};

}  // namespace tormet::util
