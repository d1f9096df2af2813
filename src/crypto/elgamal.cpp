#include "src/crypto/elgamal.h"

#include "src/util/check.h"

namespace tormet::crypto {

elgamal::elgamal(std::shared_ptr<const group> g) : group_{std::move(g)} {
  expects(group_ != nullptr, "elgamal requires a group");
}

elgamal_keypair elgamal::generate_keypair(secure_rng& rng) const {
  elgamal_keypair kp;
  kp.secret = group_->random_scalar(rng);
  kp.pub = group_->mul_generator(kp.secret);
  return kp;
}

group_element elgamal::combine_public_keys(
    std::span<const group_element> shares) const {
  expects(!shares.empty(), "need at least one public-key share");
  group_element joint = shares[0];
  for (std::size_t i = 1; i < shares.size(); ++i) {
    joint = group_->add(joint, shares[i]);
  }
  return joint;
}

elgamal_ciphertext elgamal::encrypt(const group_element& pub,
                                    const group_element& m,
                                    secure_rng& rng) const {
  const scalar r = group_->random_scalar(rng);
  // r·Y through the fixed-base entry point: once a bulk batch has given the
  // key a table (p256 caches one per base), single encryptions use it too.
  return {group_->mul_generator(r),
          group_->add(m, group_->mul_batch(pub, std::span{&r, 1})[0])};
}

elgamal_ciphertext elgamal::encrypt_zero(const group_element& pub,
                                         secure_rng& rng) const {
  return encrypt(pub, group_->identity(), rng);
}

elgamal_ciphertext elgamal::encrypt_one(const group_element& pub,
                                        secure_rng& rng) const {
  return encrypt(pub, group_->random_element(rng), rng);
}

elgamal_ciphertext elgamal::add(const elgamal_ciphertext& c1,
                                const elgamal_ciphertext& c2) const {
  return {group_->add(c1.a, c2.a), group_->add(c1.b, c2.b)};
}

elgamal_ciphertext elgamal::rerandomize(const group_element& pub,
                                        const elgamal_ciphertext& c,
                                        secure_rng& rng) const {
  return add(c, encrypt_zero(pub, rng));
}

elgamal_ciphertext elgamal::strip_share(const elgamal_ciphertext& c,
                                        const scalar& secret_share) const {
  return {c.a, group_->sub(c.b, group_->mul(c.a, secret_share))};
}

group_element elgamal::decrypt(const scalar& secret,
                               const elgamal_ciphertext& c) const {
  return group_->sub(c.b, group_->mul(c.a, secret));
}

namespace {

// Splits a ciphertext span into its component vectors (handle copies are a
// refcount bump each) so the group batch ops can run over flat spans.
void split_components(std::span<const elgamal_ciphertext> cts,
                      std::vector<group_element>& as,
                      std::vector<group_element>& bs) {
  as.reserve(cts.size());
  bs.reserve(cts.size());
  for (const auto& ct : cts) {
    as.push_back(ct.a);
    bs.push_back(ct.b);
  }
}

[[nodiscard]] std::vector<elgamal_ciphertext> zip_components(
    std::vector<group_element> as, std::vector<group_element> bs) {
  std::vector<elgamal_ciphertext> out;
  out.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    out.push_back({std::move(as[i]), std::move(bs[i])});
  }
  return out;
}

}  // namespace

void elgamal::draw_scalars(secure_rng& rng, std::span<const std::uint8_t> bits,
                           std::span<scalar> rs, std::span<scalar> ms) const {
  expects(bits.empty() || (bits.size() == rs.size() && ms.size() == rs.size()),
          "draw_scalars spans must have equal length");
  for (std::size_t i = 0; i < rs.size(); ++i) {
    // encrypt_one draws its random message element before its nonce.
    if (!bits.empty() && bits[i] != 0) ms[i] = group_->random_scalar(rng);
    rs[i] = group_->random_scalar(rng);
  }
}

std::vector<elgamal_ciphertext> elgamal::encrypt_batch(
    const group_element& pub, std::span<const scalar> rs,
    std::span<const scalar> ms) const {
  expects(ms.empty() || ms.size() == rs.size(),
          "encrypt_batch spans must have equal length");
  // b = identity + r·Y = r·Y, so a zero's identity add is skipped outright.
  std::vector<group_element> as = group_->mul_generator_batch(rs);
  std::vector<group_element> bs = group_->mul_batch(pub, rs);
  // Gather the positions with a message, add their messages, scatter back.
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ms[i].valid()) at.push_back(i);
  }
  if (!at.empty()) {
    std::vector<scalar> ks;
    std::vector<group_element> gathered;
    ks.reserve(at.size());
    gathered.reserve(at.size());
    for (const std::size_t i : at) {
      ks.push_back(ms[i]);
      gathered.push_back(bs[i]);
    }
    std::vector<group_element> summed =
        group_->add_batch(group_->mul_generator_batch(ks), gathered);
    for (std::size_t j = 0; j < at.size(); ++j) bs[at[j]] = std::move(summed[j]);
  }
  return zip_components(std::move(as), std::move(bs));
}

std::vector<elgamal_ciphertext> elgamal::encrypt_zero_batch(
    const group_element& pub, std::size_t count, secure_rng& rng) const {
  std::vector<scalar> rs(count);
  draw_scalars(rng, {}, rs, {});
  return encrypt_batch(pub, rs);
}

std::vector<elgamal_ciphertext> elgamal::encrypt_bits_batch(
    const group_element& pub, std::span<const std::uint8_t> bits,
    secure_rng& rng) const {
  std::vector<scalar> rs(bits.size()), ms(bits.size());
  draw_scalars(rng, bits, rs, ms);
  return encrypt_batch(pub, rs, ms);
}

std::vector<elgamal_ciphertext> elgamal::add_batch(
    std::span<const elgamal_ciphertext> c1,
    std::span<const elgamal_ciphertext> c2) const {
  expects(c1.size() == c2.size(), "add_batch spans must have equal length");
  std::vector<group_element> a1, b1, a2, b2;
  split_components(c1, a1, b1);
  split_components(c2, a2, b2);
  return zip_components(group_->add_batch(a1, a2), group_->add_batch(b1, b2));
}

std::vector<elgamal_ciphertext> elgamal::rerandomize_batch(
    const group_element& pub, std::span<const elgamal_ciphertext> cts,
    secure_rng& rng) const {
  std::vector<scalar> rs(cts.size());
  draw_scalars(rng, {}, rs, {});
  return rerandomize_batch(pub, cts, rs);
}

std::vector<elgamal_ciphertext> elgamal::rerandomize_batch(
    const group_element& pub, std::span<const elgamal_ciphertext> cts,
    std::span<const scalar> rs) const {
  expects(cts.size() == rs.size(), "rerandomize_batch spans must have equal length");
  return add_batch(cts, encrypt_batch(pub, rs));
}

std::vector<elgamal_ciphertext> elgamal::strip_share_batch(
    std::span<const elgamal_ciphertext> cts, const scalar& secret_share) const {
  std::vector<group_element> as, bs;
  split_components(cts, as, bs);
  const std::vector<group_element> shares = group_->mul_batch(as, secret_share);
  return zip_components(std::move(as), group_->sub_batch(bs, shares));
}

namespace {

/// The wire ciphertext: each component encoding behind its length byte.
[[nodiscard]] byte_buffer frame_components(const byte_buffer& ea,
                                           const byte_buffer& eb) {
  expects(ea.size() <= 0xff && eb.size() <= 0xff, "element encoding too large");
  byte_buffer out;
  out.reserve(2 + ea.size() + eb.size());
  out.push_back(static_cast<std::uint8_t>(ea.size()));
  out.insert(out.end(), ea.begin(), ea.end());
  out.push_back(static_cast<std::uint8_t>(eb.size()));
  out.insert(out.end(), eb.begin(), eb.end());
  return out;
}

}  // namespace

byte_buffer elgamal::encode(const elgamal_ciphertext& c) const {
  return frame_components(group_->encode(c.a), group_->encode(c.b));
}

elgamal::ciphertext_views elgamal::split_encoding(byte_view data) {
  expects(!data.empty(), "ciphertext encoding must be non-empty");
  const std::size_t len_a = data[0];
  expects(data.size() >= 1 + len_a + 1, "ciphertext encoding truncated");
  const byte_view ea = data.subspan(1, len_a);
  const std::size_t len_b = data[1 + len_a];
  expects(data.size() == 2 + len_a + len_b, "ciphertext encoding length mismatch");
  const byte_view eb = data.subspan(2 + len_a, len_b);
  return {ea, eb};
}

elgamal_ciphertext elgamal::decode(byte_view data) const {
  const ciphertext_views views = split_encoding(data);
  return {group_->decode(views.a), group_->decode(views.b)};
}

std::vector<byte_buffer> elgamal::encode_batch(
    std::span<const elgamal_ciphertext> cts) const {
  std::vector<group_element> points;
  points.reserve(2 * cts.size());
  for (const auto& ct : cts) {
    points.push_back(ct.a);
    points.push_back(ct.b);
  }
  const std::vector<byte_buffer> encoded = group_->encode_batch(points);
  std::vector<byte_buffer> out;
  out.reserve(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    out.push_back(frame_components(encoded[2 * i], encoded[2 * i + 1]));
  }
  return out;
}

std::vector<elgamal_ciphertext> elgamal::decode_batch(
    std::span<const byte_view> data) const {
  std::vector<byte_view> as, bs;
  as.reserve(data.size());
  bs.reserve(data.size());
  for (const auto& d : data) {
    const ciphertext_views views = split_encoding(d);
    as.push_back(views.a);
    bs.push_back(views.b);
  }
  return zip_components(group_->decode_batch(as), group_->decode_batch(bs));
}

std::size_t elgamal::count_non_identity_plaintexts(
    std::span<const byte_view> data) const {
  std::vector<byte_view> bs;
  bs.reserve(data.size());
  for (const auto& d : data) bs.push_back(split_encoding(d).b);
  return group_->count_non_identity(bs);
}

}  // namespace tormet::crypto
