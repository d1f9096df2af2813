// ElGamal over an abstract group, written additively:
//   Enc(Y, M; r) = (r·G, M + r·Y)
// with public key Y, generator G, message element M. Supports the
// operations PSC needs:
//   * homomorphic combination: Enc(M1) ⊕ Enc(M2) = Enc(M1 + M2)
//   * rerandomization:        Enc(M; r) → Enc(M; r + r') (same plaintext)
//   * distributed decryption: parties holding shares x_i of x = Σ x_i
//     (Y = Σ x_i·G) each strip their share; the final B component is M.
#pragma once

#include <memory>
#include <vector>

#include "src/crypto/group.h"
#include "src/crypto/secure_rng.h"

namespace tormet::crypto {

/// An ElGamal ciphertext (pair of group elements).
struct elgamal_ciphertext {
  group_element a;  // r·G
  group_element b;  // M + r·Y
};

/// A private/public keypair (or one party's share of a distributed key).
struct elgamal_keypair {
  scalar secret;
  group_element pub;
};

/// Stateless ElGamal operations bound to one group instance.
class elgamal {
 public:
  explicit elgamal(std::shared_ptr<const group> g);

  [[nodiscard]] const group& grp() const noexcept { return *group_; }

  /// Generates a fresh keypair.
  [[nodiscard]] elgamal_keypair generate_keypair(secure_rng& rng) const;

  /// Combines public-key shares into the joint key Y = Σ Y_i.
  [[nodiscard]] group_element combine_public_keys(
      std::span<const group_element> shares) const;

  /// Encrypts message element `m` under public key `pub`.
  [[nodiscard]] elgamal_ciphertext encrypt(const group_element& pub,
                                           const group_element& m,
                                           secure_rng& rng) const;

  /// Encrypts the identity (PSC's "bit = 0").
  [[nodiscard]] elgamal_ciphertext encrypt_zero(const group_element& pub,
                                                secure_rng& rng) const;

  /// Encrypts a uniformly random non-identity element (PSC's "bit = 1";
  /// sums of such messages are non-identity except with negligible
  /// probability).
  [[nodiscard]] elgamal_ciphertext encrypt_one(const group_element& pub,
                                               secure_rng& rng) const;

  /// Homomorphic combination: decrypts to the sum of the two plaintexts.
  [[nodiscard]] elgamal_ciphertext add(const elgamal_ciphertext& c1,
                                       const elgamal_ciphertext& c2) const;

  /// Fresh randomness, same plaintext. Unlinkable to the input without the
  /// secret key.
  [[nodiscard]] elgamal_ciphertext rerandomize(const group_element& pub,
                                               const elgamal_ciphertext& c,
                                               secure_rng& rng) const;

  /// One party's distributed-decryption step: removes x_i·A from B.
  /// After every shareholder has applied theirs, `b` equals the plaintext.
  [[nodiscard]] elgamal_ciphertext strip_share(const elgamal_ciphertext& c,
                                               const scalar& secret_share) const;

  /// Single-key decryption (for tests and non-distributed use).
  [[nodiscard]] group_element decrypt(const scalar& secret,
                                      const elgamal_ciphertext& c) const;

  // -- batch operations ----------------------------------------------------
  // Vector forms built on the group's batch API. Randomness is drawn from
  // `rng` in index order before any group math, so each batch call consumes
  // the RNG stream exactly like the equivalent serial loop and produces
  // bit-identical ciphertexts — serial and batched protocol paths are
  // interchangeable. The draws and the products are also available apart
  // (draw_scalars, then the span-of-scalars forms), which is how the batch
  // engine draws per shard and multiplies per chunk. Empty batches are
  // no-ops.

  /// The scalars encrypt_bits_batch(pub, bits, rng) draws, in its order:
  /// per index, the message scalar when bits[i] != 0, then the nonce. rs
  /// gets every nonce; ms[i] is drawn at one bits and left as it was at
  /// zero bits. Empty `bits` draws nonces only (every index a zero), and ms
  /// may then be empty.
  void draw_scalars(secure_rng& rng, std::span<const std::uint8_t> bits,
                    std::span<scalar> rs, std::span<scalar> ms) const;

  /// Encryptions from drawn scalars: index i encrypts ms[i]·G under nonce
  /// rs[i], or the identity when ms is empty or ms[i] is not valid. These
  /// are encrypt_one's and encrypt_zero's products for those draws.
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_batch(
      const group_element& pub, std::span<const scalar> rs,
      std::span<const scalar> ms = {}) const;

  /// cts[i] ⊕ the encryption of zero under nonce rs[i].
  [[nodiscard]] std::vector<elgamal_ciphertext> rerandomize_batch(
      const group_element& pub, std::span<const elgamal_ciphertext> cts,
      std::span<const scalar> rs) const;

  /// `count` independent encryptions of zero (PSC bulk bin initialization).
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_zero_batch(
      const group_element& pub, std::size_t count, secure_rng& rng) const;

  /// Per index: encrypt_one when bits[i] != 0, else encrypt_zero (the CP
  /// binomial-noise vector).
  [[nodiscard]] std::vector<elgamal_ciphertext> encrypt_bits_batch(
      const group_element& pub, std::span<const std::uint8_t> bits,
      secure_rng& rng) const;

  /// Elementwise homomorphic combination (tally-server table merge).
  [[nodiscard]] std::vector<elgamal_ciphertext> add_batch(
      std::span<const elgamal_ciphertext> c1,
      std::span<const elgamal_ciphertext> c2) const;

  /// Rerandomizes every ciphertext (the mix pass hot loop).
  [[nodiscard]] std::vector<elgamal_ciphertext> rerandomize_batch(
      const group_element& pub, std::span<const elgamal_ciphertext> cts,
      secure_rng& rng) const;

  /// Strips one decryption share from every ciphertext.
  [[nodiscard]] std::vector<elgamal_ciphertext> strip_share_batch(
      std::span<const elgamal_ciphertext> cts,
      const scalar& secret_share) const;

  /// Serialized ciphertext (length-prefixed a || b), and its inverse.
  [[nodiscard]] byte_buffer encode(const elgamal_ciphertext& c) const;
  [[nodiscard]] elgamal_ciphertext decode(byte_view data) const;

  /// The two component encodings inside one wire ciphertext (views into the
  /// caller's buffer — no copy). Validates the framing exactly like
  /// decode(); component validity is checked only when the views are
  /// actually decoded.
  struct ciphertext_views {
    byte_view a;
    byte_view b;
  };
  [[nodiscard]] static ciphertext_views split_encoding(byte_view data);

  /// Batch forms of encode/decode (one call site, one pass). encode_batch
  /// encodes every point through one group::encode_batch call. decode_batch
  /// reads views — into a received message, say — and runs through the
  /// group's arena decoder: one element arena per component vector instead
  /// of a heap node per element.
  [[nodiscard]] std::vector<byte_buffer> encode_batch(
      std::span<const elgamal_ciphertext> cts) const;
  [[nodiscard]] std::vector<elgamal_ciphertext> decode_batch(
      std::span<const byte_view> data) const;

  /// The tally decode: decodes only each ciphertext's b component (after
  /// every shareholder stripped, b IS the plaintext) and counts non-identity
  /// results, with zero per-element allocations. Framing and the b encoding
  /// are validated exactly like decode(); the a component — dead weight once
  /// stripping finished — is only length-checked, so a wire vector whose a
  /// bytes are corrupt still tallies (full decode() would throw on it).
  [[nodiscard]] std::size_t count_non_identity_plaintexts(
      std::span<const byte_view> data) const;

 private:
  std::shared_ptr<const group> group_;
};

}  // namespace tormet::crypto
