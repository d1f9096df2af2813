#include "src/util/op_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "src/util/logging.h"

namespace tormet::util {
namespace {

constexpr std::string_view k_log_magic = "tormet-oplog-v1\n";
// A record far larger than any protocol record is corruption, not data;
// bounding it keeps a flipped length byte from allocating gigabytes.
constexpr std::uint32_t k_max_record = 64u * 1024 * 1024;

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void put_u32(byte_buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Reads the whole file, or nullopt when it does not exist. Other I/O
/// failures throw op_log_error.
[[nodiscard]] std::optional<byte_buffer> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in.is_open()) {
    if (!std::filesystem::exists(path)) return std::nullopt;
    throw op_log_error{"cannot open " + path};
  }
  byte_buffer data{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  if (in.bad()) throw op_log_error{"read failed for " + path};
  return data;
}

/// Parses one [len][crc][payload] frame at `off`, advancing it. Strict: a
/// partial frame, oversized length, or checksum mismatch throws.
[[nodiscard]] byte_buffer parse_record(const byte_buffer& data, std::size_t& off,
                                       const std::string& path) {
  const auto fail = [&](const char* what) -> void {
    throw op_log_error{std::string{what} + " in " + path + " at offset " +
                       std::to_string(off)};
  };
  if (data.size() - off < 8) fail("truncated record header");
  const auto get_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data[at + static_cast<std::size_t>(i)];
    return v;
  };
  const std::uint32_t len = get_u32(off);
  const std::uint32_t crc = get_u32(off + 4);
  if (len > k_max_record) fail("oversized record");
  if (data.size() - off - 8 < len) fail("truncated record payload");
  byte_buffer payload{data.begin() + static_cast<std::ptrdiff_t>(off + 8),
                      data.begin() + static_cast<std::ptrdiff_t>(off + 8 + len)};
  if (crc32(payload) != crc) fail("record checksum mismatch");
  off += 8 + len;
  return payload;
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw op_log_error{"write failed for " + path + ": " +
                         std::strerror(errno)};
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint32_t crc32(byte_view data) {
  static constexpr std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

durable_store::durable_store(std::string dir) : path_{dir + "/oplog"} {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw op_log_error{"cannot create durable dir " + dir};

  const std::optional<byte_buffer> log = read_file(path_);
  if (log.has_value()) {
    const byte_buffer& data = *log;
    if (data.size() < k_log_magic.size() ||
        !std::equal(k_log_magic.begin(), k_log_magic.end(), data.begin())) {
      throw op_log_error{"bad op-log magic in " + path_};
    }
    std::size_t off = k_log_magic.size();
    while (off < data.size()) {
      recovered_.push_back(parse_record(data, off, path_));
    }
  }
  log_fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
  if (log_fd_ < 0) {
    throw op_log_error{"cannot open " + path_ + ": " + std::strerror(errno)};
  }
  if (!log.has_value()) {
    try {
      write_all(log_fd_,
                reinterpret_cast<const std::uint8_t*>(k_log_magic.data()),
                k_log_magic.size(), path_);
    } catch (...) {
      ::close(log_fd_);
      throw;
    }
  }
}

durable_store::~durable_store() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

void durable_store::append(byte_view record) {
  byte_buffer frame;
  frame.reserve(8 + record.size());
  put_u32(frame, static_cast<std::uint32_t>(record.size()));
  put_u32(frame, crc32(record));
  frame.insert(frame.end(), record.begin(), record.end());
  // One write() call per record, then a flush to the device: the log is
  // the deployment's only durable state.
  write_all(log_fd_, frame.data(), frame.size(), path_);
  while (::fdatasync(log_fd_) != 0) {
    if (errno != EINTR) {
      throw op_log_error{"fdatasync failed for " + path_ + ": " +
                         std::strerror(errno)};
    }
  }
}

}  // namespace tormet::util
