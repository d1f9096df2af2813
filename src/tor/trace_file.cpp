#include "src/tor/trace_file.h"

#include "src/util/check.h"

namespace tormet::tor {

std::string trace_file_name(std::size_t dc_index) {
  return "dc-" + std::to_string(dc_index) + ".trace";
}

// -- trace_writer ------------------------------------------------------------

trace_writer::trace_writer(const std::string& path) : path_{path} {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw precondition_error{"cannot create trace file " + path};
  }
  append_trace_header(buf_);
}

trace_writer::~trace_writer() {
  if (file_ != nullptr) std::fclose(file_);
}

void trace_writer::write(const event& ev) {
  expects(file_ != nullptr, "trace writer is closed");
  expects(count_ == 0 || ev.at.seconds >= last_seconds_,
          "trace events must be non-decreasing in sim time");
  last_seconds_ = ev.at.seconds;
  append_event_record(buf_, ev);
  ++count_;
  if (buf_.size() >= (256 << 10)) flush_buffer();
}

void trace_writer::flush_buffer() {
  if (buf_.empty()) return;
  const std::size_t written = std::fwrite(buf_.data(), 1, buf_.size(), file_);
  if (written != buf_.size()) {
    throw precondition_error{"short write on trace file " + path_};
  }
  buf_.clear();
}

void trace_writer::close() {
  expects(file_ != nullptr, "trace writer already closed");
  flush_buffer();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) throw precondition_error{"close failed on trace file " + path_};
}

// -- trace_reader ------------------------------------------------------------

trace_reader::trace_reader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw precondition_error{"cannot open trace file " + path};
  }
}

trace_reader::~trace_reader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::optional<event> trace_reader::next() {
  for (;;) {
    std::optional<event> ev = decoder_.next();
    if (ev.has_value()) {
      if (saw_event_ && ev->at.seconds < last_seconds_) {
        throw net::wire_error{"trace file: timestamp regression"};
      }
      saw_event_ = true;
      last_seconds_ = ev->at.seconds;
      ++count_;
      return ev;
    }
    if (eof_) {
      if (!decoder_.at_record_boundary()) {
        throw net::wire_error{"trace file: truncated (ends mid-record)"};
      }
      return std::nullopt;
    }
    std::uint8_t chunk[k_chunk_bytes];
    const std::size_t n = std::fread(chunk, 1, sizeof chunk, file_);
    if (n == 0) {
      if (std::ferror(file_) != 0) {
        throw net::wire_error{"trace file: read error"};
      }
      eof_ = true;
      continue;
    }
    decoder_.feed(byte_view{chunk, n});
  }
}

}  // namespace tormet::tor
