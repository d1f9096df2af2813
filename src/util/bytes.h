// Byte-buffer alias plus hex encoding helpers used across the crypto and
// wire layers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tormet {

using byte_buffer = std::vector<std::uint8_t>;
using byte_view = std::span<const std::uint8_t>;

/// Lowercase hex encoding of `data` ("" for empty input).
[[nodiscard]] std::string to_hex(byte_view data);

/// Decodes a hex string (upper or lower case). Throws precondition_error on
/// odd length or non-hex characters.
[[nodiscard]] byte_buffer from_hex(std::string_view hex);

/// View over the bytes of a string (no copy).
[[nodiscard]] inline byte_view as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Copies a byte view into a std::string (for map keys, diagnostics).
[[nodiscard]] inline std::string to_string(byte_view b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// A view of each buffer (no copy); `buffers` must outlive the views.
[[nodiscard]] inline std::vector<byte_view> views_of(
    std::span<const byte_buffer> buffers) {
  return std::vector<byte_view>(buffers.begin(), buffers.end());
}

}  // namespace tormet
