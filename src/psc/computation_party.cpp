#include "src/psc/computation_party.h"

#include <iterator>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::psc {

computation_party::computation_party(net::node_id self, net::node_id tally_server,
                                     net::transport& transport,
                                     crypto::secure_rng& rng)
    : self_{self}, tally_server_{tally_server}, transport_{transport}, rng_{rng} {}

void computation_party::set_thread_pool(std::shared_ptr<util::thread_pool> pool) {
  pool_ = std::move(pool);
}

void computation_party::on_configure(const cp_configure_msg& m) {
  round_id_ = m.round_id;
  noise_bits_ = m.noise_bits;
  cp_chain_ = m.cp_chain;
  group_ = crypto::make_group(static_cast<crypto::group_backend>(m.group));
  engine_ = std::make_unique<crypto::batch_engine>(group_, pool_);
  keypair_ = engine_->scheme().generate_keypair(rng_);
  mixed_ = false;

  pk_share_msg share;
  share.round_id = round_id_;
  share.pk = group_->encode(keypair_.pub);
  transport_.send(encode_pk_share(self_, tally_server_, share));
}

net::node_id computation_party::next_in_chain() const {
  for (std::size_t i = 0; i < cp_chain_.size(); ++i) {
    if (cp_chain_[i] == self_) {
      return i + 1 < cp_chain_.size() ? cp_chain_[i + 1] : tally_server_;
    }
  }
  throw invariant_error{"this CP is not in the configured chain"};
}

void computation_party::on_mix(const net::message& msg) {
  vector_msg m = decode_vector(msg);
  if (m.round_id != round_id_) return;
  if (mixed_) {
    // Duplicate mix pass from a retried round attempt: mixing again would
    // advance the RNG a second time and break byte-identical recovery.
    log_line{log_level::warn} << "CP " << self_
                              << ": duplicate mix pass for round " << m.round_id
                              << "; dropping";
    return;
  }
  expects(onward_pk_.valid(), "mix pass before the onward key arrived");
  mixed_ = true;
  // Stripping this CP's share moves the vector from K_i to K_{i+1}. Each
  // vector below is freed as soon as the next one is built, so the pass
  // holds the round's vector about once beside the message it came in.
  std::vector<crypto::elgamal_ciphertext> cts = engine_->strip_share_batch(
      engine_->decode_batch(m.ciphertexts), keypair_.secret);
  m = {};

  // Binomial noise: append noise_bits ciphertexts, each an encryption of a
  // fair coin (identity or random element). Expected added count is
  // noise_bits/2, which the estimator subtracts. Coins come from the session
  // RNG; the encryptions run batched on the engine.
  std::vector<std::uint8_t> coins(noise_bits_);
  for (auto& coin : coins) {
    coin = static_cast<std::uint8_t>(rng_.next_u64() & 1);
  }
  std::vector<crypto::elgamal_ciphertext> noise = engine_->encrypt_bits_batch(
      onward_pk_, coins, crypto::batch_engine::derive_seed(rng_));
  cts.insert(cts.end(), std::make_move_iterator(noise.begin()),
             std::make_move_iterator(noise.end()));
  noise = {};

  // The last CP mixes under the identity, so its output holds plaintexts.
  const std::vector<byte_buffer> encoded =
      engine_->encode_batch(crypto::shuffle_and_rerandomize(
          *engine_, onward_pk_, std::move(cts), rng_));
  const net::node_id next = next_in_chain();
  const msg_type type =
      next == tally_server_ ? msg_type::final_vector : msg_type::mix_pass;
  transport_.send(encode_vector(self_, next, type, {round_id_, views_of(encoded)}));
}

void computation_party::handle_message(const net::message& msg) {
  switch (static_cast<msg_type>(msg.type)) {
    case msg_type::cp_configure:
      on_configure(decode_cp_configure(msg));
      return;
    case msg_type::dc_configure: {
      // The TS sends each CP its onward key with the message that carries
      // the joint key to the DCs.
      const dc_configure_msg m = decode_dc_configure(msg);
      if (m.round_id != round_id_) return;
      onward_pk_ = group_->decode(m.joint_pk);
      return;
    }
    case msg_type::mix_pass:
      on_mix(msg);
      return;
    default:
      log_line{log_level::warn} << "CP " << self_ << ": unexpected message type "
                                << msg.type;
  }
}

}  // namespace tormet::psc
