#include "src/net/wire.h"

#include <bit>
#include <cstring>

#include "src/util/check.h"

namespace tormet::net {

void append_varint(byte_buffer& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void wire_writer::write_u8(std::uint8_t v) { buf_.push_back(v); }

void wire_writer::write_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void wire_writer::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void wire_writer::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void wire_writer::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void wire_writer::write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

void wire_writer::write_varint(std::uint64_t v) { append_varint(buf_, v); }

void wire_writer::write_bytes(byte_view data) {
  write_varint(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void wire_writer::write_string(std::string_view s) { write_bytes(as_bytes(s)); }

void wire_reader::require(std::size_t n) const {
  if (remaining() < n) throw wire_error{"truncated input"};
}

std::uint8_t wire_reader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t wire_reader::read_u16() {
  require(2);
  std::uint16_t v = 0;
  for (int i = 1; i >= 0; --i) v = static_cast<std::uint16_t>((v << 8) | data_[pos_ + static_cast<std::size_t>(i)]);
  pos_ += 2;
  return v;
}

std::uint32_t wire_reader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t wire_reader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

std::int64_t wire_reader::read_i64() { return static_cast<std::int64_t>(read_u64()); }

double wire_reader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::uint64_t wire_reader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    require(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 63 && (byte & 0x7f) > 1) throw wire_error{"varint overflow"};
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw wire_error{"varint too long"};
  }
}

std::uint64_t wire_reader::read_count(std::size_t min_element_bytes) {
  expects(min_element_bytes > 0, "read_count needs a positive element size");
  const std::uint64_t n = read_varint();
  if (n > remaining() / min_element_bytes) {
    throw wire_error{"element count exceeds input"};
  }
  return n;
}

byte_buffer wire_reader::read_bytes() {
  const byte_view view = read_bytes_view();
  return {view.begin(), view.end()};
}

byte_view wire_reader::read_bytes_view() {
  const std::uint64_t len = read_varint();
  if (len > remaining()) throw wire_error{"byte field longer than input"};
  const byte_view out = data_.subspan(pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

std::string wire_reader::read_string() {
  const byte_view view = read_bytes_view();
  return {view.begin(), view.end()};
}

void wire_reader::expect_end() const {
  if (!at_end()) throw wire_error{"trailing bytes after message"};
}

}  // namespace tormet::net
