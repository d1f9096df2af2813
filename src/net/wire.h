// Wire codec: a small, bounds-checked, little-endian serializer shared by
// protocol messages (PrivCount/PSC) and the TCP frame layer. Deliberately
// schema-free — each message type implements encode/decode — but every
// primitive read is length-checked, so truncated or malicious input raises
// wire_error instead of reading out of bounds.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/bytes.h"

namespace tormet::net {

/// Thrown on malformed input (truncation, oversized lengths).
class wire_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends `v` as an LEB128-style varint (wire_writer::write_varint's
/// encoding) to `out`.
void append_varint(byte_buffer& out, std::uint64_t v);

/// The number of bytes append_varint writes for `v`.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Append-only encoder.
class wire_writer {
 public:
  wire_writer() = default;
  /// Appends after the bytes `out` already holds; take() hands it back.
  explicit wire_writer(byte_buffer out) noexcept : buf_{std::move(out)} {}

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  /// IEEE-754 bits of a double (used for noise parameters in config
  /// messages; counters themselves are integers).
  void write_f64(double v);
  /// LEB128-style varint (space-efficient lengths).
  void write_varint(std::uint64_t v);
  /// varint length followed by raw bytes.
  void write_bytes(byte_view data);
  void write_string(std::string_view s);

  [[nodiscard]] const byte_buffer& data() const noexcept { return buf_; }
  [[nodiscard]] byte_buffer take() noexcept { return std::move(buf_); }

 private:
  byte_buffer buf_;
};

/// Bounds-checked decoder over a borrowed view. The view must outlive the
/// reader.
class wire_reader {
 public:
  explicit wire_reader(byte_view data) noexcept : data_{data} {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::uint64_t read_varint();
  /// Reads a varint element count and checks it against the bytes left,
  /// given the fewest bytes one element can encode to (at least 1); throws
  /// wire_error when the input cannot hold that many. Read every count a
  /// decoder reserves for through this.
  [[nodiscard]] std::uint64_t read_count(std::size_t min_element_bytes);
  [[nodiscard]] byte_buffer read_bytes();
  /// read_bytes() without the copy: a view into the input.
  [[nodiscard]] byte_view read_bytes_view();
  [[nodiscard]] std::string read_string();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  /// Throws wire_error unless the whole input has been consumed — call at
  /// the end of a message decode to reject trailing garbage.
  void expect_end() const;

 private:
  void require(std::size_t n) const;
  byte_view data_;
  std::size_t pos_ = 0;
};

}  // namespace tormet::net
