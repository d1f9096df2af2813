// Write-ahead op-log tests: append/replay round-trips and strict
// rejection of every kind of on-disk damage — truncation, CRC mismatch,
// oversized lengths, bad magic — as a typed op_log_error, never a crash or
// a silent misrecovery.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"
#include "src/util/op_log.h"

namespace tormet::util {
namespace {

[[nodiscard]] byte_buffer bytes_of(const std::string& s) {
  return byte_buffer{s.begin(), s.end()};
}

class oplog_fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tormet-oplog-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string dir() const { return dir_.string(); }
  [[nodiscard]] std::filesystem::path log_path() const {
    return dir_ / "oplog";
  }

  [[nodiscard]] std::string read_raw(const std::filesystem::path& p) const {
    std::ifstream in{p, std::ios::binary};
    return {std::istreambuf_iterator<char>{in},
            std::istreambuf_iterator<char>{}};
  }
  void write_raw(const std::filesystem::path& p, const std::string& s) const {
    std::ofstream out{p, std::ios::binary | std::ios::trunc};
    out << s;
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(oplog_fixture, FreshStoreIsEmptyAndCreatesTheDirectory) {
  durable_store store{dir()};
  EXPECT_TRUE(store.recovered().empty());
  EXPECT_TRUE(std::filesystem::exists(log_path()));
}

TEST_F(oplog_fixture, AppendedRecordsReplayInOrderAcrossReopen) {
  {
    durable_store store{dir()};
    store.append(bytes_of("round 1"));
    store.append(bytes_of("round 2"));
    store.append(bytes_of(std::string(100'000, 'x')));  // multi-chunk-ish
  }
  durable_store back{dir()};
  ASSERT_EQ(back.recovered().size(), 3u);
  EXPECT_EQ(back.recovered()[0], bytes_of("round 1"));
  EXPECT_EQ(back.recovered()[1], bytes_of("round 2"));
  EXPECT_EQ(back.recovered()[2].size(), 100'000u);
}

/// Known-answer bytes: the log file after two fixed appends.
TEST_F(oplog_fixture, LogBytesMatchKnownDigest) {
  {
    durable_store store{dir()};
    store.append(bytes_of("tormet-ts-round-v1\nround 1\n"));
    store.append(bytes_of(std::string(1'000, 'q')));
  }
  EXPECT_EQ(to_hex(crypto::sha256(read_raw(log_path()))),
            "a417507a2738119281ab1b269144d1089c9b711228a3c9b490b78131a91436e2");
}

TEST_F(oplog_fixture, EmptyRecordsRoundTrip) {
  {
    durable_store store{dir()};
    store.append(byte_view{});
    store.append(bytes_of("x"));
  }
  durable_store back{dir()};
  ASSERT_EQ(back.recovered().size(), 2u);
  EXPECT_TRUE(back.recovered()[0].empty());
}

TEST_F(oplog_fixture, EveryLogTruncationFailsLoudly) {
  {
    durable_store store{dir()};
    store.append(bytes_of("round 1"));
    store.append(bytes_of("round 2"));
  }
  const std::string full = read_raw(log_path());
  // A cut anywhere strictly inside a record frame must throw; a cut at a
  // record boundary (or inside the magic) either throws or recovers a
  // prefix — never crashes, never fabricates data.
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_raw(log_path(), full.substr(0, len));
    try {
      durable_store store{dir()};
      for (const auto& rec : store.recovered()) {
        EXPECT_TRUE(rec == bytes_of("round 1") || rec == bytes_of("round 2"));
      }
    } catch (const op_log_error&) {
    }
  }
}

TEST_F(oplog_fixture, CorruptedLogBytesFailLoudly) {
  {
    durable_store store{dir()};
    store.append(bytes_of("important state"));
  }
  const std::string full = read_raw(log_path());
  // Flip every byte (one at a time): header flips break the magic, frame
  // flips break length/CRC, payload flips break the CRC. All must throw.
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    std::string bad = full;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    write_raw(log_path(), bad);
    EXPECT_THROW(durable_store{dir()}, op_log_error) << "byte " << pos;
  }
}

TEST_F(oplog_fixture, OversizedRecordLengthIsRejectedNotAllocated) {
  {
    durable_store store{dir()};
    store.append(bytes_of("x"));
  }
  std::string full = read_raw(log_path());
  // Patch the record length field (first 4 bytes after the magic) to an
  // absurd value: the loader must reject it instead of allocating 4 GiB.
  const std::size_t magic = std::string{"tormet-oplog-v1\n"}.size();
  for (int i = 0; i < 4; ++i) full[magic + i] = static_cast<char>(0xff);
  write_raw(log_path(), full);
  EXPECT_THROW(durable_store{dir()}, op_log_error);
}

TEST_F(oplog_fixture, Crc32MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  const byte_buffer v = bytes_of("123456789");
  EXPECT_EQ(crc32(v), 0xCBF43926u);
  EXPECT_EQ(crc32(byte_view{}), 0u);

  // Every length and alignment a word-at-a-time loop and its byte tail can
  // meet, against the polynomial applied one bit at a time.
  const auto bitwise = [](byte_view data) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : data) {
      c ^= b;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return c ^ 0xFFFFFFFFu;
  };
  byte_buffer buf(8 + 67);
  std::uint32_t x = 2018;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const byte_view data{buf.data() + offset, len};
      EXPECT_EQ(crc32(data), bitwise(data))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace tormet::util
