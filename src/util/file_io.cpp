#include "src/util/file_io.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/util/check.h"

namespace tormet::util {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: t[0] is the
/// classic byte-at-a-time table, and t[k][b] is the CRC register after byte
/// b is followed by k zero bytes, so eight input bytes fold in with eight
/// independent lookups.
using crc_tables = std::array<std::array<std::uint32_t, 256>, 8>;

[[nodiscard]] constexpr crc_tables make_crc_tables() {
  crc_tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

void put_u32(byte_buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Little-endian u32, spelled so the compiler folds it into one load.
[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* at) {
  return static_cast<std::uint32_t>(at[0]) |
         static_cast<std::uint32_t>(at[1]) << 8 |
         static_cast<std::uint32_t>(at[2]) << 16 |
         static_cast<std::uint32_t>(at[3]) << 24;
}

}  // namespace

std::uint32_t crc32(byte_view data) {
  static constexpr crc_tables t = make_crc_tables();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
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
