// PSC protocol messages. The paper's §3.1 extension adds a tally server
// that coordinates the DCs and CPs; the message flow here follows that
// design:
//
//   TS -> CP   cp_configure        (bins, noise bits, group backend)
//   CP -> TS   pk_share            (public-key share)
//   TS -> DC   dc_configure        (bins, joint public key)
//   TS -> CP   dc_configure        (the CP's onward key: the later CPs' shares)
//   ... collection: DCs insert items locally/obliviously ...
//   TS -> DC   report_request
//   DC -> TS   dc_vector           (encrypted bit table)
//   TS combines homomorphically, then the vector walks the CP chain once:
//   TS -> CP1 -> ... -> CPm        mix_pass (each strips its key share, then
//                                  adds noise, shuffles and rerandomizes
//                                  under its onward key)
//   CPm -> TS  final_vector: CPm's onward key is the identity, so it holds
//              plaintexts; the TS counts non-identity bins.
#pragma once

#include <cstdint>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/net/transport.h"

namespace tormet::psc {

enum class msg_type : std::uint16_t {
  cp_configure = 32,
  pk_share = 33,
  dc_configure = 34,
  report_request = 35,
  dc_vector = 36,
  mix_pass = 37,
  decrypt_pass = 38,  // retired: the mix pass strips; never sent
  final_vector = 39,
};

struct cp_configure_msg {
  std::uint32_t round_id = 0;
  std::uint64_t bins = 0;
  std::uint64_t noise_bits = 0;  // per CP
  std::uint8_t group = 0;        // crypto::group_backend
  std::vector<net::node_id> cp_chain;  // mixing order
};

struct pk_share_msg {
  std::uint32_t round_id = 0;
  byte_buffer pk;
};

struct dc_configure_msg {
  std::uint32_t round_id = 0;
  std::uint64_t bins = 0;
  std::uint8_t group = 0;
  byte_buffer joint_pk;  // a DC's encryption key; a CP's onward key
};

/// A ciphertext vector in transit (dc_vector / mix_pass / final_vector all
/// carry this shape). The ciphertexts are views: into the sender's
/// encodings for encode_vector, into the received payload after
/// decode_vector. What they view must outlive them.
struct vector_msg {
  std::uint32_t round_id = 0;
  std::vector<byte_view> ciphertexts;
};

[[nodiscard]] net::message encode_cp_configure(net::node_id from, net::node_id to,
                                               const cp_configure_msg& m);
[[nodiscard]] cp_configure_msg decode_cp_configure(const net::message& msg);

[[nodiscard]] net::message encode_pk_share(net::node_id from, net::node_id to,
                                           const pk_share_msg& m);
[[nodiscard]] pk_share_msg decode_pk_share(const net::message& msg);

[[nodiscard]] net::message encode_dc_configure(net::node_id from, net::node_id to,
                                               const dc_configure_msg& m);
[[nodiscard]] dc_configure_msg decode_dc_configure(const net::message& msg);

[[nodiscard]] net::message encode_report_request(net::node_id from, net::node_id to,
                                                 std::uint32_t round_id);

[[nodiscard]] net::message encode_vector(net::node_id from, net::node_id to,
                                         msg_type type, const vector_msg& m);
/// Views into `msg.payload`: `msg` must outlive the result.
[[nodiscard]] vector_msg decode_vector(const net::message& msg);
vector_msg decode_vector(net::message&&) = delete;

}  // namespace tormet::psc
