#include "src/tor/trace_file.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>

#include "src/util/check.h"

namespace tormet::tor {

std::string trace_file_name(std::size_t dc_index) {
  return "dc-" + std::to_string(dc_index) + ".trace";
}

std::vector<std::size_t> write_trace_files(
    const std::vector<std::vector<event>>& per_dc, const std::string& dir) {
  std::vector<std::size_t> counts;
  for (std::size_t k = 0; k < per_dc.size(); ++k) {
    trace_writer writer{dir + "/" + trace_file_name(k)};
    for (const event& ev : per_dc[k]) writer.write(ev);
    writer.close();
    counts.push_back(writer.events_written());
  }
  return counts;
}

// -- trace_writer ------------------------------------------------------------

trace_writer::trace_writer(const std::string& path)
    : label_{"trace file " + path} {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) throw precondition_error{"cannot create trace file " + path};
  append_trace_header(buf_);
}

trace_writer::trace_writer(int socket_fd, std::string label)
    : fd_{socket_fd}, socket_{true}, label_{std::move(label)} {
  append_trace_header(buf_);
}

trace_writer::~trace_writer() {
  if (fd_ >= 0) ::close(fd_);
}

void trace_writer::write(const event& ev) {
  expects(fd_ >= 0, "trace writer is closed");
  expects(count_ == 0 || ev.at.seconds >= last_seconds_,
          "trace events must be non-decreasing in sim time");
  const std::size_t start = buf_.size();
  append_event_record(buf_, ev);
  // Every reader rejects a record over the cap, so none is written.
  net::wire_reader record{byte_view{buf_}.subspan(start)};
  if (record.read_varint() > k_max_event_record_bytes) {
    buf_.resize(start);
    throw precondition_error{"trace event record exceeds " +
                             std::to_string(k_max_event_record_bytes) +
                             " bytes"};
  }
  last_seconds_ = ev.at.seconds;
  ++count_;
  if (buf_.size() >= k_buffer_bytes) flush_buffer();
}

void trace_writer::flush_buffer() {
  std::size_t done = 0;
  while (done < buf_.size()) {
    const std::uint8_t* at = buf_.data() + done;
    const std::size_t left = buf_.size() - done;
    const ssize_t n = socket_ ? ::send(fd_, at, left, MSG_NOSIGNAL)
                              : ::write(fd_, at, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw precondition_error{"short write on " + label_};
    }
    done += static_cast<std::size_t>(n);
  }
  buf_.clear();
}

void trace_writer::close() {
  expects(fd_ >= 0, "trace writer already closed");
  flush_buffer();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) throw precondition_error{"close failed on " + label_};
}

// -- trace_reader ------------------------------------------------------------

trace_reader::trace_reader(const std::string& path) : label_{"trace file"} {
  std::FILE* f = std::fopen(path.c_str(), "rbe");  // e: close-on-exec
  if (f == nullptr) throw precondition_error{"cannot open trace file " + path};
  const std::shared_ptr<std::FILE> file{f,
                                        [](std::FILE* p) { std::fclose(p); }};
  source_ = [file](std::uint8_t* buf, std::size_t n) {
    const std::size_t got = std::fread(buf, 1, n, file.get());
    if (got == 0 && std::ferror(file.get()) != 0) {
      throw net::wire_error{"trace file: read error"};
    }
    return got;
  };
}

trace_reader::trace_reader(byte_source source, std::string label)
    : source_{std::move(source)}, label_{std::move(label)} {}

std::optional<event> trace_reader::next() {
  for (;;) {
    std::optional<event> ev = decoder_.next();
    if (ev.has_value()) {
      if (count_ > 0 && ev->at.seconds < last_seconds_) {
        throw net::wire_error{label_ + ": timestamp regression"};
      }
      last_seconds_ = ev->at.seconds;
      ++count_;
      return ev;
    }
    if (eof_) {
      if (!decoder_.at_record_boundary()) {
        throw net::wire_error{label_ + ": truncated (ends mid-record)"};
      }
      return std::nullopt;
    }
    std::uint8_t chunk[k_chunk_bytes];
    const std::size_t n = source_(chunk, sizeof chunk);
    if (n == 0) {
      eof_ = true;
    } else {
      decoder_.feed(byte_view{chunk, n});
    }
  }
}

}  // namespace tormet::tor
