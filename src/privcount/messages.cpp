#include "src/privcount/messages.h"

#include "src/net/wire.h"

namespace tormet::privcount {

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

void write_u64_vector(net::wire_writer& w, const std::vector<std::uint64_t>& v) {
  w.write_varint(v.size());
  for (const auto x : v) w.write_u64(x);
}

[[nodiscard]] std::vector<std::uint64_t> read_u64_vector(net::wire_reader& r) {
  const std::uint64_t n = r.read_count(8);
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.read_u64());
  return v;
}
}  // namespace

net::message encode_configure(net::node_id from, net::node_id to,
                              const configure_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  w.write_varint(m.counter_names.size());
  for (const auto& name : m.counter_names) w.write_string(name);
  w.write_varint(m.sigmas.size());
  for (const auto s : m.sigmas) w.write_f64(s);
  w.write_f64(m.noise_weight);
  w.write_varint(m.share_keepers.size());
  for (const auto sk : m.share_keepers) w.write_u32(sk);
  return make(from, to, msg_type::configure, w);
}

configure_msg decode_configure(const net::message& msg) {
  net::wire_reader r{msg.payload};
  configure_msg m;
  m.round_id = r.read_u32();
  // A name encodes to at least its varint length byte.
  const std::uint64_t n_names = r.read_count(1);
  m.counter_names.reserve(n_names);
  for (std::uint64_t i = 0; i < n_names; ++i) m.counter_names.push_back(r.read_string());
  const std::uint64_t n_sigmas = r.read_count(8);
  m.sigmas.reserve(n_sigmas);
  for (std::uint64_t i = 0; i < n_sigmas; ++i) m.sigmas.push_back(r.read_f64());
  m.noise_weight = r.read_f64();
  const std::uint64_t n_sk = r.read_count(4);
  m.share_keepers.reserve(n_sk);
  for (std::uint64_t i = 0; i < n_sk; ++i) m.share_keepers.push_back(r.read_u32());
  r.expect_end();
  if (m.counter_names.size() != m.sigmas.size()) {
    throw net::wire_error{"configure: names/sigmas size mismatch"};
  }
  return m;
}

net::message encode_blinding_share(net::node_id from, net::node_id to,
                                   const blinding_share_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  write_u64_vector(w, m.shares);
  return make(from, to, msg_type::blinding_share, w);
}

blinding_share_msg decode_blinding_share(const net::message& msg) {
  net::wire_reader r{msg.payload};
  blinding_share_msg m;
  m.round_id = r.read_u32();
  m.shares = read_u64_vector(r);
  r.expect_end();
  return m;
}

net::message encode_simple(net::node_id from, net::node_id to, msg_type type,
                           std::uint32_t round_id) {
  net::wire_writer w;
  w.write_u32(round_id);
  return make(from, to, type, w);
}

std::uint32_t decode_round_id(const net::message& msg) {
  net::wire_reader r{msg.payload};
  const std::uint32_t round_id = r.read_u32();
  // Simple messages carry only the round id, but allow richer messages'
  // round ids to be peeked without consuming the rest.
  return round_id;
}

net::message encode_dc_report(net::node_id from, net::node_id to,
                              const dc_report_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  write_u64_vector(w, m.values);
  return make(from, to, msg_type::dc_report, w);
}

dc_report_msg decode_dc_report(const net::message& msg) {
  net::wire_reader r{msg.payload};
  dc_report_msg m;
  m.round_id = r.read_u32();
  m.values = read_u64_vector(r);
  r.expect_end();
  return m;
}

net::message encode_sk_reveal(net::node_id from, net::node_id to,
                              const sk_reveal_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  w.write_varint(m.reporting_dcs.size());
  for (const auto dc : m.reporting_dcs) w.write_u32(dc);
  return make(from, to, msg_type::sk_reveal, w);
}

sk_reveal_msg decode_sk_reveal(const net::message& msg) {
  net::wire_reader r{msg.payload};
  sk_reveal_msg m;
  m.round_id = r.read_u32();
  const std::uint64_t n = r.read_count(4);
  m.reporting_dcs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.reporting_dcs.push_back(r.read_u32());
  r.expect_end();
  return m;
}

net::message encode_sk_report(net::node_id from, net::node_id to,
                              const sk_report_msg& m) {
  net::wire_writer w;
  w.write_u32(m.round_id);
  write_u64_vector(w, m.sums);
  return make(from, to, msg_type::sk_report, w);
}

sk_report_msg decode_sk_report(const net::message& msg) {
  net::wire_reader r{msg.payload};
  sk_report_msg m;
  m.round_id = r.read_u32();
  m.sums = read_u64_vector(r);
  r.expect_end();
  return m;
}

}  // namespace tormet::privcount
