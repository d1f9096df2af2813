#include "src/psc/messages.h"

#include "src/net/wire.h"

namespace tormet::psc {

namespace {
[[nodiscard]] net::message make(net::node_id from, net::node_id to, msg_type type,
                                net::wire_writer& w) {
  net::message msg;
  msg.from = from;
  msg.to = to;
  msg.type = static_cast<std::uint16_t>(type);
  msg.payload = w.take();
  return msg;
}
}  // namespace

net::message encode_cp_configure(net::node_id from, net::node_id to,
                                 const cp_configure_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  w.write_u64(m.bins);
  w.write_u64(m.noise_bits);
  w.write_u8(m.group);
  w.write_varint(m.cp_chain.size());
  for (const auto cp : m.cp_chain) w.write_u32(cp);
  return make(from, to, msg_type::cp_configure, w);
}

cp_configure_msg decode_cp_configure(const net::message& msg) {
  net::wire_reader r{msg.payload};
  cp_configure_msg m;
  m.round_id = r.read_u32();
  m.bins = r.read_u64();
  m.noise_bits = r.read_u64();
  m.group = r.read_u8();
  const std::uint64_t n = r.read_count(4);
  m.cp_chain.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.cp_chain.push_back(r.read_u32());
  r.expect_end();
  return m;
}

net::message encode_pk_share(net::node_id from, net::node_id to,
                             const pk_share_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  w.write_bytes(m.pk);
  return make(from, to, msg_type::pk_share, w);
}

pk_share_msg decode_pk_share(const net::message& msg) {
  net::wire_reader r{msg.payload};
  pk_share_msg m;
  m.round_id = r.read_u32();
  m.pk = r.read_bytes();
  r.expect_end();
  return m;
}

net::message encode_dc_configure(net::node_id from, net::node_id to,
                                 const dc_configure_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  w.write_u64(m.bins);
  w.write_u8(m.group);
  w.write_bytes(m.joint_pk);
  return make(from, to, msg_type::dc_configure, w);
}

dc_configure_msg decode_dc_configure(const net::message& msg) {
  net::wire_reader r{msg.payload};
  dc_configure_msg m;
  m.round_id = r.read_u32();
  m.bins = r.read_u64();
  m.group = r.read_u8();
  m.joint_pk = r.read_bytes();
  r.expect_end();
  return m;
}

net::message encode_report_request(net::node_id from, net::node_id to,
                                   std::uint32_t round_id) {
  net::wire_writer w;
  w.write_u32(round_id);
  return make(from, to, msg_type::report_request, w);
}

net::message encode_vector(net::node_id from, net::node_id to, msg_type type,
                           const vector_msg& m) {
  // The payload is reserved at its exact size: a multi-MB vector is never
  // copied by a growing buffer.
  std::size_t size = 4 + net::varint_size(m.ciphertexts.size());
  for (const auto& ct : m.ciphertexts) size += net::varint_size(ct.size()) + ct.size();
  byte_buffer payload;
  payload.reserve(size);
  net::wire_writer w{std::move(payload)};
  w.write_u32(m.round_id);
  w.write_varint(m.ciphertexts.size());
  for (const auto& ct : m.ciphertexts) w.write_bytes(ct);
  return make(from, to, type, w);
}

vector_msg decode_vector(const net::message& msg) {
  net::wire_reader r{msg.payload};
  vector_msg m;
  m.round_id = r.read_u32();
  // A ciphertext encodes to at least its varint length byte.
  const std::uint64_t n = r.read_count(1);
  m.ciphertexts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.ciphertexts.push_back(r.read_bytes_view());
  r.expect_end();
  return m;
}

}  // namespace tormet::psc
