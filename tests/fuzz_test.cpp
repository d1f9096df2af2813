// Robustness ("fuzz-ish") property tests: every decoder must reject
// malformed input by throwing a typed error — never crash, hang, or read
// out of bounds. Exercised over systematic truncations and random
// corruptions of valid messages.
#include <gtest/gtest.h>
#include <openssl/bn.h>
#include <openssl/ec.h>
#include <openssl/err.h>
#include <openssl/obj_mac.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/cli/deployment_plan.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/secure_rng.h"
#include "src/net/wire.h"
#include "src/privcount/counter_slab.h"
#include "src/privcount/messages.h"
#include "src/psc/messages.h"
#include "src/psc/oblivious_set.h"
#include "src/tor/event_shard.h"
#include "src/util/check.h"
#include "src/util/op_log.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace tormet::crypto {
/// Test-only backdoor into the private scalar constructor, so the
/// small-buffer/heap storage split can be exercised directly (no backend
/// produces encodings wider than the inline buffer).
struct scalar_test_access {
  [[nodiscard]] static scalar make(byte_view bytes) { return scalar{bytes}; }
};
}  // namespace tormet::crypto

namespace tormet {
namespace {

/// Decodes must either succeed or throw wire_error/precondition_error —
/// anything else (crash, other exception) fails the test.
template <typename Fn>
void expect_graceful(Fn&& decode) {
  try {
    decode();
  } catch (const net::wire_error&) {
  } catch (const precondition_error&) {
  } catch (const std::runtime_error&) {
    // Crypto decoders surface OpenSSL failures as runtime_error.
  }
}

TEST(FuzzTest, PrivcountConfigureTruncations) {
  privcount::configure_msg m;
  m.round_id = 3;
  m.counter_names = {"a/b", "c/d", "e"};
  m.sigmas = {1.0, 2.0, 3.0};
  m.noise_weight = 0.5;
  m.share_keepers = {1, 2, 3};
  const net::message full = privcount::encode_configure(0, 1, m);

  for (std::size_t len = 0; len < full.payload.size(); ++len) {
    net::message cut = full;
    cut.payload.resize(len);
    EXPECT_THROW((void)privcount::decode_configure(cut), net::wire_error)
        << "prefix length " << len;
  }
  // The full message decodes.
  EXPECT_NO_THROW((void)privcount::decode_configure(full));
}

TEST(FuzzTest, PrivcountReportCorruption) {
  privcount::dc_report_msg m;
  m.round_id = 9;
  m.values = {1, 2, 3, ~0ULL};
  const net::message full = privcount::encode_dc_report(4, 0, m);

  rng r{101};
  for (int trial = 0; trial < 500; ++trial) {
    net::message corrupt = full;
    const std::size_t pos = static_cast<std::size_t>(
        r.below(corrupt.payload.size()));
    corrupt.payload[pos] ^= static_cast<std::uint8_t>(1 + r.below(255));
    expect_graceful([&] { (void)privcount::decode_dc_report(corrupt); });
  }
}

TEST(FuzzTest, PscVectorTruncationsAndCorruption) {
  const auto group = crypto::make_toy_group();
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng_c{7};
  const auto kp = scheme.generate_keypair(rng_c);

  psc::vector_msg m;
  m.round_id = 2;
  std::vector<crypto::elgamal_ciphertext> cts;
  for (int i = 0; i < 8; ++i) cts.push_back(scheme.encrypt_one(kp.pub, rng_c));
  const std::vector<byte_buffer> encoded = scheme.encode_batch(cts);
  m.ciphertexts = views_of(encoded);
  const net::message full = psc::encode_vector(1, 2, psc::msg_type::mix_pass, m);

  for (std::size_t len = 0; len < full.payload.size(); len += 3) {
    net::message cut = full;
    cut.payload.resize(len);
    expect_graceful([&] {
      const psc::vector_msg decoded = psc::decode_vector(cut);
      (void)scheme.decode_batch(decoded.ciphertexts);
    });
  }

  rng r{55};
  for (int trial = 0; trial < 300; ++trial) {
    net::message corrupt = full;
    const std::size_t pos =
        static_cast<std::size_t>(r.below(corrupt.payload.size()));
    corrupt.payload[pos] ^= static_cast<std::uint8_t>(1 + r.below(255));
    expect_graceful([&] {
      const psc::vector_msg decoded = psc::decode_vector(corrupt);
      (void)scheme.decode_batch(decoded.ciphertexts);
    });
  }
}

// Element counts come off the wire. A decoder must check each against the
// bytes that follow before it reserves anything: a short message claiming
// 2^62 or 2^50 elements is a wire_error, not a length_error or bad_alloc.
constexpr std::uint64_t k_huge_counts[] = {std::uint64_t{1} << 62,
                                           std::uint64_t{1} << 50};

[[nodiscard]] net::message with_payload(net::wire_writer& w) {
  net::message msg;
  msg.payload = w.take();
  return msg;
}

TEST(FuzzTest, PscVectorRejectsCountsItsPayloadCannotHold) {
  for (const std::uint64_t n : k_huge_counts) {
    net::wire_writer w;
    w.write_u32(2);
    w.write_varint(n);
    const net::message msg = with_payload(w);
    EXPECT_THROW((void)psc::decode_vector(msg), net::wire_error) << n;
  }
}

TEST(FuzzTest, PscCpConfigureRejectsChainCountsItsPayloadCannotHold) {
  for (const std::uint64_t n : k_huge_counts) {
    net::wire_writer w;
    w.write_u32(1);
    w.write_u64(1024);
    w.write_u64(7);
    w.write_u8(0);
    w.write_varint(n);
    w.write_u32(1);
    EXPECT_THROW((void)psc::decode_cp_configure(with_payload(w)),
                 net::wire_error)
        << n;
  }
}

TEST(FuzzTest, PrivcountU64VectorsRejectCountsTheirPayloadCannotHold) {
  for (const std::uint64_t n : k_huge_counts) {
    net::wire_writer w;
    w.write_u32(3);
    w.write_varint(n);
    w.write_u64(42);
    const net::message msg = with_payload(w);
    EXPECT_THROW((void)privcount::decode_blinding_share(msg), net::wire_error);
    EXPECT_THROW((void)privcount::decode_dc_report(msg), net::wire_error);
    EXPECT_THROW((void)privcount::decode_sk_report(msg), net::wire_error);
  }
}

TEST(FuzzTest, PrivcountConfigureRejectsCountsItsPayloadCannotHold) {
  // The huge count in each of the three counted fields in turn: names,
  // sigmas, share keepers.
  for (const std::uint64_t n : k_huge_counts) {
    for (int field = 0; field < 3; ++field) {
      net::wire_writer w;
      w.write_u32(3);
      w.write_varint(field == 0 ? n : 0);
      w.write_varint(field == 1 ? n : 0);
      w.write_f64(0.5);
      w.write_varint(field == 2 ? n : 0);
      EXPECT_THROW((void)privcount::decode_configure(with_payload(w)),
                   net::wire_error)
          << "field " << field << " count " << n;
    }
  }
}

TEST(FuzzTest, PrivcountSkRevealRejectsCountsItsPayloadCannotHold) {
  for (const std::uint64_t n : k_huge_counts) {
    net::wire_writer w;
    w.write_u32(3);
    w.write_varint(n);
    w.write_u32(4);
    EXPECT_THROW((void)privcount::decode_sk_reveal(with_payload(w)),
                 net::wire_error)
        << n;
  }
}

TEST(FuzzTest, GroupElementDecodeRejectsGarbage) {
  rng r{77};
  for (const auto backend :
       {crypto::group_backend::toy, crypto::group_backend::p256}) {
    const auto group = crypto::make_group(backend);
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t len = 1 + r.below(70);
      byte_buffer junk(len);
      for (auto& b : junk) b = static_cast<std::uint8_t>(r.below(256));
      expect_graceful([&] { (void)group->decode(junk); });
      expect_graceful([&] { (void)group->decode_scalar(junk); });
    }
  }
}

/// A P-256 point with a small X, encoded canonically and with X + p in
/// place of X: the same point, its X not reduced modulo p.
struct unreduced_point {
  byte_buffer canonical;
  byte_buffer unreduced;
};

[[nodiscard]] unreduced_point p256_point_with_unreduced_x() {
  EC_GROUP* curve = EC_GROUP_new_by_curve_name(NID_X9_62_prime256v1);
  BN_CTX* ctx = BN_CTX_new();
  EC_POINT* pt = EC_POINT_new(curve);
  BIGNUM* x = BN_new();
  BIGNUM* y = BN_new();
  BIGNUM* p = BN_new();
  EXPECT_EQ(EC_GROUP_get_curve(curve, p, nullptr, nullptr, ctx), 1);
  // Every other small X has a point; the first one is at most a few steps
  // away, and X + p still fits 32 bytes.
  for (BN_ULONG v = 1;; ++v) {
    EXPECT_EQ(BN_set_word(x, v), 1);
    if (EC_POINT_set_compressed_coordinates(curve, pt, x, 0, ctx) == 1) break;
    ERR_clear_error();
  }
  EXPECT_EQ(EC_POINT_get_affine_coordinates(curve, pt, nullptr, y, ctx), 1);
  unreduced_point out;
  for (byte_buffer* enc : {&out.canonical, &out.unreduced}) {
    enc->assign(65, 0);
    (*enc)[0] = 0x04;
    EXPECT_EQ(BN_bn2binpad(x, enc->data() + 1, 32), 32);
    EXPECT_EQ(BN_bn2binpad(y, enc->data() + 33, 32), 32);
    EXPECT_EQ(BN_add(x, x, p), 1);  // the second pass writes X + p
  }
  BN_free(p);
  BN_free(y);
  BN_free(x);
  EC_POINT_free(pt);
  BN_CTX_free(ctx);
  EC_GROUP_free(curve);
  return out;
}

TEST(FuzzTest, ElementEncodingRoundTripsCanonically) {
  // bytes -> element -> bytes is the identity on every encoding a backend
  // writes, for random elements and the identity, on both backends.
  crypto::deterministic_rng crng{29};
  for (const auto backend :
       {crypto::group_backend::toy, crypto::group_backend::p256}) {
    const auto group = crypto::make_group(backend);
    std::vector<crypto::group_element> elements{group->identity()};
    for (int i = 0; i < 50; ++i) elements.push_back(group->random_element(crng));
    for (const auto& e : elements) {
      const byte_buffer enc = group->encode(e);
      const byte_view view{enc};
      EXPECT_EQ(group->encode(group->decode(enc)), enc);
      EXPECT_EQ(group->encode(group->decode_batch(std::span{&view, 1})[0]), enc);
    }
  }

  // p256 writes 0x04 ‖ X ‖ Y, or 0x00 for the identity, and reads nothing
  // else: each other form of a valid point throws in all three decoders.
  const auto p256 = crypto::make_group(crypto::group_backend::p256);
  EXPECT_EQ(p256->encode(p256->identity()), byte_buffer{0x00});
  const byte_buffer wire = p256->encode(p256->random_element(crng));
  ASSERT_EQ(wire.size(), 65u);
  ASSERT_EQ(wire[0], 0x04);
  const std::uint8_t y_bit = wire.back() & 1;
  byte_buffer compressed{static_cast<std::uint8_t>(0x02 | y_bit)};
  compressed.insert(compressed.end(), wire.begin() + 1, wire.begin() + 33);
  byte_buffer hybrid = wire;
  hybrid[0] = static_cast<std::uint8_t>(0x06 | y_bit);
  byte_buffer flipped_y = wire;  // off the curve
  flipped_y.back() ^= 1;
  const unreduced_point x_above_p = p256_point_with_unreduced_x();
  EXPECT_NO_THROW((void)p256->decode(x_above_p.canonical));
  const byte_buffer len64(wire.begin(), wire.end() - 1);
  byte_buffer len66 = wire;
  len66.push_back(0);
  for (const byte_buffer& bad : {compressed, hybrid, flipped_y,
                                 x_above_p.unreduced, len64, len66}) {
    const byte_view view{bad};
    EXPECT_ANY_THROW((void)p256->decode(bad)) << to_hex(bad);
    EXPECT_ANY_THROW((void)p256->decode_batch(std::span{&view, 1}))
        << to_hex(bad);
    EXPECT_ANY_THROW((void)p256->count_non_identity(std::span{&view, 1}))
        << to_hex(bad);
  }
}

TEST(FuzzTest, ScalarEncodingRoundTripsCanonically) {
  // bytes -> scalar -> bytes must be the identity on canonical encodings,
  // for freshly drawn scalars and for re-decoded ones, on both backends.
  rng r{123};
  for (const auto backend :
       {crypto::group_backend::toy, crypto::group_backend::p256}) {
    const auto group = crypto::make_group(backend);
    crypto::deterministic_rng crng{static_cast<std::uint64_t>(7 + r.below(100))};
    for (int trial = 0; trial < 100; ++trial) {
      const crypto::scalar k = group->random_scalar(crng);
      const byte_buffer enc = group->encode_scalar(k);
      const crypto::scalar back = group->decode_scalar(enc);
      EXPECT_EQ(group->encode_scalar(back), enc);
      EXPECT_TRUE(back.is_inline());  // both backends encode in <= 32 bytes
    }
    // u64-derived scalars round-trip too (the tally/count path).
    for (const std::uint64_t v : {0ULL, 1ULL, 0xffffffffULL, 1ULL << 60}) {
      const crypto::scalar k = group->scalar_from_u64(v);
      EXPECT_EQ(group->encode_scalar(group->decode_scalar(group->encode_scalar(k))),
                group->encode_scalar(k));
    }
  }
}

TEST(FuzzTest, ScalarDecodeRejectsInvalidEncodings) {
  rng r{321};
  for (const auto backend :
       {crypto::group_backend::toy, crypto::group_backend::p256}) {
    const auto group = crypto::make_group(backend);
    const std::size_t width = backend == crypto::group_backend::toy ? 8 : 32;
    // Wrong lengths must throw, never truncate or pad.
    for (const std::size_t len : {std::size_t{0}, width - 1, width + 1,
                                  std::size_t{64}}) {
      byte_buffer junk(len, 0x01);
      EXPECT_THROW((void)group->decode_scalar(junk), precondition_error)
          << "length " << len;
    }
    // Values at or above the group order must be rejected: all-0xff is
    // always >= the order for both backends.
    byte_buffer max_bytes(width, 0xff);
    EXPECT_THROW((void)group->decode_scalar(max_bytes), precondition_error);
    // Random out-of-range-or-valid inputs must never crash.
    for (int trial = 0; trial < 200; ++trial) {
      byte_buffer bytes(width);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(r.below(256));
      expect_graceful([&] { (void)group->decode_scalar(bytes); });
    }
  }
}

TEST(FuzzTest, ScalarSmallBufferAndHeapStorageBehaveIdentically) {
  rng r{555};
  // The inline buffer covers every canonical backend width (8 and 32); the
  // heap path exists for hypothetical wider backends. Both must hold the
  // bytes faithfully across copies, moves, and overwrites.
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{8}, std::size_t{32},  // inline
        std::size_t{33}, std::size_t{48}, std::size_t{64}}) {  // heap
    byte_buffer bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(r.below(256));
    const crypto::scalar k = crypto::scalar_test_access::make(bytes);
    ASSERT_TRUE(k.valid());
    EXPECT_EQ(k.is_inline(), len <= 32);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), k.bytes().begin(),
                           k.bytes().end()));

    crypto::scalar copy = k;  // copies view the same canonical bytes
    crypto::scalar moved = std::move(copy);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), moved.bytes().begin(),
                           moved.bytes().end()));

    crypto::scalar overwritten = crypto::scalar_test_access::make(bytes);
    overwritten = crypto::scalar_test_access::make(byte_buffer(5, 0xee));
    EXPECT_EQ(overwritten.bytes().size(), 5u);
    EXPECT_TRUE(overwritten.is_inline());
  }
  EXPECT_FALSE(crypto::scalar{}.valid());
}

/// A representative deployment plan exercising every section the parser
/// knows: schedule, grace, workload, instruments, counters, nodes.
[[nodiscard]] std::string valid_plan_text() {
  cli::deployment_plan plan = cli::make_privcount_plan(
      3, 2, {{"entry/connections", 12.0, 100.0}, {"exit/streams", 20.0, 1e6}});
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9100 + i);
  }
  plan.schedule_rounds = 3;
  plan.round_duration_s = k_seconds_per_day;
  plan.round_gap_s = 3600;
  plan.dc_grace_ms = 2000;
  plan.workload.kind = cli::workload_kind::generate;
  plan.workload.model = "mixed";
  plan.workload.scale = 2e-5;
  plan.workload.gen_days = 3;
  plan.instruments = {"stream_taxonomy", "entry_totals"};
  return cli::serialize_plan(plan);
}

TEST(FuzzTest, PlanParserTruncations) {
  const std::string full = valid_plan_text();
  EXPECT_NO_THROW((void)cli::parse_plan(full));
  // Every byte-prefix must either parse (a truncation can land on a line
  // boundary that still forms a smaller valid plan) or throw the typed plan
  // error — never crash or throw anything else.
  for (std::size_t len = 0; len < full.size(); ++len) {
    try {
      (void)cli::parse_plan(std::string_view{full}.substr(0, len));
    } catch (const precondition_error&) {
    }
  }
}

TEST(FuzzTest, PlanParserRandomCorruption) {
  const std::string full = valid_plan_text();
  rng r{2024};
  for (int trial = 0; trial < 1500; ++trial) {
    std::string corrupt = full;
    // 1-4 random byte edits: substitution, deletion, or insertion.
    const int edits = 1 + static_cast<int>(r.below(4));
    for (int e = 0; e < edits && !corrupt.empty(); ++e) {
      const std::size_t pos = static_cast<std::size_t>(r.below(corrupt.size()));
      switch (r.below(3)) {
        case 0:
          corrupt[pos] = static_cast<char>(' ' + r.below(95));
          break;
        case 1:
          corrupt.erase(pos, 1);
          break;
        default:
          corrupt.insert(pos, 1, static_cast<char>(' ' + r.below(95)));
          break;
      }
    }
    try {
      (void)cli::parse_plan(corrupt);
    } catch (const precondition_error&) {
    }
  }
}

TEST(FuzzTest, PlanParserLineShuffleAndDeletion) {
  const std::string full = valid_plan_text();
  std::vector<std::string> lines;
  std::istringstream in{full};
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  rng r{77};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> mutated = lines;
    // Delete a few random lines and swap a random pair.
    const int deletions = static_cast<int>(r.below(3));
    for (int d = 0; d < deletions && mutated.size() > 1; ++d) {
      mutated.erase(mutated.begin() +
                    static_cast<std::ptrdiff_t>(r.below(mutated.size())));
    }
    if (mutated.size() >= 2) {
      std::swap(mutated[r.below(mutated.size())],
                mutated[r.below(mutated.size())]);
    }
    std::string text;
    for (const auto& l : mutated) text += l + "\n";
    try {
      (void)cli::parse_plan(text);
    } catch (const precondition_error&) {
    }
  }
}

TEST(FuzzTest, PlanParserRejectsGuaranteedInvalidMutations) {
  const std::string full = valid_plan_text();
  // Header corruption is always fatal: the magic must match exactly.
  std::string bad_magic = full;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)cli::parse_plan(bad_magic), precondition_error);
  EXPECT_THROW((void)cli::parse_plan(""), precondition_error);
  EXPECT_THROW((void)cli::parse_plan("\n\n#only comments\n"),
               precondition_error);
  // Unknown keys never silently parse.
  EXPECT_THROW((void)cli::parse_plan(full + "quantum_flux 1\n"),
               precondition_error);
  // A repeated instrument would count every event twice; a repeated counter
  // would split the privacy budget over a counter that stays zero.
  EXPECT_THROW((void)cli::parse_plan(full + "instrument stream_taxonomy\n"),
               precondition_error);
  EXPECT_THROW((void)cli::parse_plan(full + "counter exit/streams 20 1000\n"),
               precondition_error);
}

/// A valid scenario plan whose `workload scenario ...` argument is
/// replaced by `arg`, so the scenario spec parser can be fuzzed in situ.
[[nodiscard]] std::string scenario_plan_with_arg(const std::string& arg) {
  cli::deployment_plan plan =
      cli::make_privcount_plan(2, 1, {{"entry/connections", 12.0, 100.0}});
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9200 + i);
  }
  plan.instruments = {"entry_totals"};
  plan.workload.kind = cli::workload_kind::scenario;
  plan.workload.model = "flash_crowd";
  plan.workload.scale = 0.5;
  plan.workload.events = 500;
  plan.workload.gen_seed = 3;
  plan.workload.gen_days = 2;
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  const std::string text = cli::serialize_plan(plan);
  const std::string key = "workload scenario ";
  const std::size_t pos = text.find(key);
  EXPECT_NE(pos, std::string::npos);
  const std::size_t eol = text.find('\n', pos);
  return text.substr(0, pos) + key + arg + text.substr(eol);
}

TEST(FuzzTest, ScenarioWorkloadSpecTypedRejections) {
  // The serializer's own spelling parses.
  EXPECT_NO_THROW((void)cli::parse_plan(
      scenario_plan_with_arg("flash_crowd,0.5,500,3,2")));
  // Every malformed spec throws the typed line-numbered plan error:
  // unknown scenario names, wrong field counts, junk numbers, and
  // out-of-range envelope parameters.
  for (const char* bad : {
           "flashcrowd,0.5,500,3,2",        // unknown scenario name
           "mevade_botnet,1,100,1",         // unknown scenario name
           "flash_crowd",                   // missing fields
           "flash_crowd,0.5",               // missing fields
           "flash_crowd,0.5,500",           // missing fields
           "flash_crowd,0.5,500,3,2,9",     // extra field
           "flash_crowd,,500,3,2",          // empty field
           "flash_crowd,0,500,3",           // scale must be > 0
           "flash_crowd,-1,500,3",          // negative scale
           "flash_crowd,1001,500,3",        // scale past the cap
           "flash_crowd,nan,500,3",         // junk scale
           "flash_crowd,0.5,0,3",           // events must be >= 1
           "flash_crowd,0.5,100000001,3",   // events past the cap
           "flash_crowd,0.5,5x0,3",         // junk events
           "flash_crowd,0.5,500,-3",        // negative seed
           "flash_crowd,0.5,500,3,0",       // days must be >= 1
           "flash_crowd,0.5,500,3,367",     // days past a year
           "flash_crowd,0.5,500,3,two",     // junk days
       }) {
    EXPECT_THROW((void)cli::parse_plan(scenario_plan_with_arg(bad)),
                 precondition_error)
        << "accepted malformed scenario spec: " << bad;
  }
}

TEST(FuzzTest, ScenarioWorkloadSpecRandomCorruption) {
  rng r{77};
  const std::string good = "flash_crowd,0.5,500,3,2";
  for (int trial = 0; trial < 800; ++trial) {
    std::string arg = good;
    const int edits = 1 + static_cast<int>(r.below(3));
    for (int e = 0; e < edits; ++e) {
      if (arg.empty()) arg = ",";
      const auto pos = static_cast<std::size_t>(r.below(arg.size()));
      switch (r.below(3)) {
        case 0:
          arg[pos] = static_cast<char>(33 + r.below(94));
          break;
        case 1:
          arg.erase(pos, 1);
          break;
        default:
          arg.insert(pos, 1, static_cast<char>(33 + r.below(94)));
          break;
      }
    }
    try {
      (void)cli::parse_plan(scenario_plan_with_arg(arg));
    } catch (const precondition_error&) {
    }
  }
}

/// Scoped scratch dir holding one durable store's on-disk state.
class oplog_dir {
 public:
  oplog_dir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("tormet-oplog-fuzz-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++));
    std::filesystem::remove_all(path_);
  }
  ~oplog_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string dir() const { return path_.string(); }
  [[nodiscard]] std::string file(const char* name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
}

/// Opening a durable store must either recover (a prefix of) the written
/// state or throw the typed op_log_error — anything else (crash, OOM from
/// a corrupted length, another exception type) is a recovery bug. Under
/// the ASan/UBSan CI legs this also proves no UB on malformed input.
void expect_clean_recovery(const std::string& dir) {
  try {
    const util::durable_store store{dir};
    (void)store.recovered();
  } catch (const util::op_log_error&) {
  }
}

TEST(FuzzTest, OpLogTruncationsRecoverOrFailLoudly) {
  oplog_dir scratch;
  {
    util::durable_store store{scratch.dir()};
    store.append(as_bytes("round 1"));
    store.append(as_bytes("round 2"));
    store.append(as_bytes(std::string(3000, 'z')));
  }
  const std::string log = slurp(scratch.file("oplog"));
  for (std::size_t len = 0; len <= log.size(); ++len) {
    spit(scratch.file("oplog"), log.substr(0, len));
    expect_clean_recovery(scratch.dir());
  }
}

TEST(FuzzTest, OpLogBitFlipsRecoverOrFailLoudly) {
  oplog_dir scratch;
  {
    util::durable_store store{scratch.dir()};
    store.append(as_bytes("round 5"));
    store.append(as_bytes("round 6"));
  }
  const std::string log = slurp(scratch.file("oplog"));

  rng r{4242};
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad_log = log;
    // 1-3 random bit flips.
    const int flips = 1 + static_cast<int>(r.below(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(r.below(bad_log.size()));
      bad_log[pos] = static_cast<char>(
          bad_log[pos] ^ static_cast<char>(1 << r.below(8)));
    }
    spit(scratch.file("oplog"), bad_log);
    expect_clean_recovery(scratch.dir());
  }
}

TEST(FuzzTest, OpLogRandomJunkFilesFailLoudly) {
  rng r{777};
  for (int trial = 0; trial < 100; ++trial) {
    oplog_dir scratch;
    std::filesystem::create_directories(scratch.dir());
    const auto junk = [&](std::size_t max_len) {
      std::string s(r.below(max_len + 1), '\0');
      for (auto& c : s) c = static_cast<char>(r.below(256));
      return s;
    };
    spit(scratch.file("oplog"), junk(200));
    expect_clean_recovery(scratch.dir());
  }
}

/// A deterministic event with the given variant shape, parameterized so a
/// fuzz loop can sweep adversarial identity distributions (all-equal client
/// ips, near-colliding targets, every body alternative).
[[nodiscard]] tor::event make_shard_event(std::uint64_t variant,
                                          std::uint64_t ident) {
  tor::event ev;
  ev.observer = static_cast<tor::relay_id>(ident % 13);
  ev.at = sim_time{static_cast<std::int64_t>(ident % 1000)};
  switch (variant % 8) {
    case 0:
      ev.body = tor::entry_connection_event{static_cast<std::uint32_t>(ident)};
      break;
    case 1:
      ev.body = tor::entry_circuit_event{static_cast<std::uint32_t>(ident),
                                         tor::circuit_kind::general};
      break;
    case 2:
      ev.body = tor::entry_data_event{static_cast<std::uint32_t>(ident),
                                      ident % 4096};
      break;
    case 3: {
      tor::exit_stream_event s;
      s.kind = tor::address_kind::hostname;
      s.is_initial = (ident % 2) == 0;
      s.target = "t" + std::to_string(ident) + ".example.com";
      ev.body = s;
      break;
    }
    case 4:
      ev.body = tor::exit_data_event{ident % 65536};
      break;
    case 5:
      ev.body = tor::hsdir_publish_event{
          tor::onion_address{"o" + std::to_string(ident)}};
      break;
    case 6:
      ev.body = tor::hsdir_fetch_event{
          tor::onion_address{"o" + std::to_string(ident)},
          tor::fetch_outcome::success};
      break;
    default:
      ev.body = tor::rend_circuit_event{tor::rend_outcome::succeeded,
                                        ident % 512};
      break;
  }
  return ev;
}

TEST(FuzzTest, ShardOfAlwaysLandsInRange) {
  // Adversarial keys: the fixed points hash mixers get wrong, tiny
  // sequential client ips, aligned powers of two, plus random draws.
  std::vector<std::uint64_t> keys = {0, 1, 2, 0xffffffffffffffffULL,
                                     0x8000000000000000ULL,
                                     0x5555555555555555ULL};
  for (std::uint64_t i = 0; i < 64; ++i) {
    keys.push_back(i);             // small client ips
    keys.push_back(1ULL << i);     // aligned
    keys.push_back((1ULL << i) - 1);
  }
  rng r{4242};
  for (int i = 0; i < 500; ++i) keys.push_back(r.next());

  std::vector<std::size_t> shard_counts = {1, 2, 3, 5, 7, 8, 16, 17, 64, 4096};
  for (int i = 0; i < 50; ++i) {
    shard_counts.push_back(1 + static_cast<std::size_t>(r.below(10000)));
  }
  for (const std::uint64_t key : keys) {
    for (const std::size_t shards : shard_counts) {
      const std::size_t s = tor::shard_of(key, shards);
      ASSERT_LT(s, shards) << "key " << key << " shards " << shards;
      // Pure function: re-evaluation never moves an event between shards.
      ASSERT_EQ(s, tor::shard_of(key, shards));
    }
    ASSERT_EQ(tor::shard_of(key, 1), 0u);
  }
}

TEST(FuzzTest, ShardKeyGroupsEventsByIdentity) {
  rng r{31337};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t variant = r.next();
    const std::uint64_t ident = r.below(64);  // force identity collisions
    const tor::event a = make_shard_event(variant, ident);
    const tor::event b = make_shard_event(variant, ident);
    // Same identity, same variant => same key => same shard, always.
    ASSERT_EQ(tor::shard_key_of(a), tor::shard_key_of(b));
  }
}

TEST(FuzzTest, ShardedSlabMergeIsPartitionIndependent) {
  // Property: bucketing a random event stream across S shards, accumulating
  // per-shard slab rows, and merging must reproduce the single-shard slab
  // exactly — for any S, including S > n (guaranteed empty shards) and the
  // all-one-shard skew of an all-equal identity stream.
  rng r{1618};
  constexpr std::size_t counters = 5;
  const std::size_t stride = counters + 1;  // + trash slot
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = r.below(300);
    const bool skew = (trial % 4) == 0;  // every identity equal: one shard
    std::vector<tor::event> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back(make_shard_event(skew ? 0 : r.next(),
                                        skew ? 7 : r.below(40)));
    }
    // The "instrument": a fixed per-event contribution, applied to whatever
    // slab row the event's shard owns. Also dirties the trash slot, which
    // merge must drop.
    const auto apply = [&](const tor::event& ev, std::uint64_t* row) {
      row[ev.body.index() % counters] += 1;
      row[static_cast<std::size_t>(ev.at.seconds) % counters] += 3;
      row[counters] += 999;  // trash slot: must never reach the tally
    };
    std::vector<std::uint64_t> base(counters);
    for (auto& b : base) b = r.next();  // blinded starts, wrap-around included

    const auto merged_with = [&](std::size_t shards) {
      std::vector<std::uint64_t> slabs(shards * stride, 0);
      for (const auto& ev : events) {
        const std::size_t s = tor::shard_of(tor::shard_key_of(ev), shards);
        apply(ev, slabs.data() + s * stride);
      }
      std::vector<std::uint64_t> out;
      privcount::merge_slabs(slabs, shards, counters, base, out);
      return out;
    };

    const std::vector<std::uint64_t> reference = merged_with(1);
    for (const std::size_t shards : {2ul, 3ul, 8ul, 17ul, n + 5, 1000ul}) {
      ASSERT_EQ(merged_with(shards), reference)
          << "trial " << trial << " shards " << shards << " n " << n;
    }
  }
}

TEST(FuzzTest, MergeSlabsRejectsShapeMismatches) {
  std::vector<std::uint64_t> out;
  const std::vector<std::uint64_t> base(4);
  // Slab vector not shards x (counters + 1).
  EXPECT_THROW(
      privcount::merge_slabs(std::vector<std::uint64_t>(9), 2, 4, base, out),
      precondition_error);
  // Base not one value per counter.
  EXPECT_THROW(
      privcount::merge_slabs(std::vector<std::uint64_t>(10), 2, 4,
                             std::vector<std::uint64_t>(3), out),
      precondition_error);
}

TEST(FuzzTest, SeededBatchInsertsEqualOneAtATime) {
  // Property behind a DC's batched ingest: an insert's ciphertext depends
  // only on (bin, seed) and the last insert into a bin wins, so one batch
  // (which computes only each bin's last insert), batches split at any
  // point, and one insert at a time must give a byte-identical table,
  // under random streams, all-one-bin skew, and never-touched (empty) bins.
  const auto group = crypto::make_toy_group();
  const crypto::batch_engine engine{group,
                                    std::make_shared<util::thread_pool>(2)};
  const crypto::elgamal& scheme = engine.scheme();
  constexpr std::size_t bins = 32;
  rng r{2718};
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 1 + r.below(120);
    const bool skew = (trial % 3) == 0;
    std::vector<psc::seeded_insert> inserts;
    inserts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      inserts.push_back({skew ? 5 : r.below(bins), r.next()});
    }

    const auto table_after = [&](std::size_t batch) {
      // Fresh rng per set: both start from the same all-zero table bytes.
      crypto::deterministic_rng set_rng{90 + static_cast<std::uint64_t>(trial)};
      psc::oblivious_set set{engine, scheme.generate_keypair(set_rng).pub,
                             bins, set_rng};
      for (std::size_t i = 0; i < n; i += batch) {
        set.insert_seeded(
            std::span{inserts}.subspan(i, std::min(batch, n - i)));
      }
      std::vector<byte_buffer> bytes;
      for (const auto& c : set.slots()) bytes.push_back(scheme.encode(c));
      return bytes;
    };

    const std::vector<byte_buffer> reference = table_after(1);
    for (const std::size_t batch : {2ul, 7ul, bins, n}) {
      ASSERT_EQ(table_after(batch), reference)
          << "trial " << trial << " batch " << batch;
    }
  }
}

TEST(FuzzTest, ElgamalCiphertextDecodeBounds) {
  const auto group = crypto::make_toy_group();
  const crypto::elgamal scheme{group};
  rng r{99};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = 1 + r.below(24);
    byte_buffer junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(r.below(256));
    expect_graceful([&] { (void)scheme.decode(junk); });
  }
}

}  // namespace
}  // namespace tormet
