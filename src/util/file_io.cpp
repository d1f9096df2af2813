#include "src/util/file_io.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/util/check.h"

namespace tormet::util {
namespace {

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
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | at[i];
  return v;
}

}  // namespace

std::uint32_t crc32(byte_view data) {
  static constexpr std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_record(byte_buffer& out, byte_view payload) {
  out.reserve(out.size() + 8 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

record_reader::record_reader(byte_view file, std::string_view magic,
                             std::string label)
    : file_{file}, label_{std::move(label)} {
  if (file.size() < magic.size() ||
      std::memcmp(file.data(), magic.data(), magic.size()) != 0) {
    fail("bad magic");
  }
  pos_ = magic.size();
}

byte_view record_reader::next() {
  if (file_.size() - pos_ < 8) fail("truncated record header");
  const std::uint32_t len = get_u32(file_.data() + pos_);
  const std::uint32_t crc = get_u32(file_.data() + pos_ + 4);
  if (len > k_max_record_bytes) fail("oversized record");
  if (file_.size() - pos_ - 8 < len) fail("truncated record payload");
  const byte_view payload = file_.subspan(pos_ + 8, len);
  if (crc32(payload) != crc) fail("record checksum mismatch");
  pos_ += 8 + len;
  return payload;
}

void record_reader::fail(const char* what) const {
  throw record_error{label_ + ": " + what + " at offset " +
                     std::to_string(pos_)};
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in.is_open()) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string data(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(data.data(), size)) return std::nullopt;
  return data;
}

void write_file_atomic(const std::string& path, byte_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc | std::ios::binary};
    if (!out.good()) throw precondition_error{"cannot create " + tmp};
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out.good()) throw precondition_error{"short write on " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw precondition_error{"atomic rename to " + path + " failed"};
  }
}

}  // namespace tormet::util
