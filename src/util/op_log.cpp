#include "src/util/op_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>

namespace tormet::util {
namespace {

constexpr std::string_view k_log_magic = "tormet-oplog-v1\n";

void write_all(int fd, byte_view data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw op_log_error{"write failed for " + path + ": " +
                         std::strerror(errno)};
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

durable_store::durable_store(std::string dir) : path_{dir + "/oplog"} {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw op_log_error{"cannot create durable dir " + dir};

  const std::optional<std::string> log = read_file(path_);
  if (log.has_value()) {
    record_reader records{as_bytes(*log), k_log_magic, path_};
    while (!records.done()) {
      const byte_view record = records.next();
      recovered_.emplace_back(record.begin(), record.end());
    }
  } else if (std::filesystem::exists(path_)) {
    throw op_log_error{"cannot read " + path_};
  }
  log_fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
  if (log_fd_ < 0) {
    throw op_log_error{"cannot open " + path_ + ": " + std::strerror(errno)};
  }
  if (!log.has_value()) {
    try {
      write_all(log_fd_, as_bytes(k_log_magic), path_);
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
  append_record(frame, record);
  // One write() call per record, then a flush to the device: the log is
  // the deployment's only durable state.
  write_all(log_fd_, frame, path_);
  while (::fdatasync(log_fd_) != 0) {
    if (errno != EINTR) {
      throw op_log_error{"fdatasync failed for " + path_ + ": " +
                         std::strerror(errno)};
    }
  }
}

}  // namespace tormet::util
