#include "src/crypto/group.h"

#include "src/util/check.h"

namespace tormet::crypto {

byte_buffer group::encode_scalar(const scalar& k) const {
  expects(k.valid(), "scalar must be valid");
  const byte_view bytes = k.bytes();
  return {bytes.begin(), bytes.end()};
}

std::vector<byte_buffer> group::encode_batch(
    std::span<const group_element> elements) const {
  std::vector<byte_buffer> out;
  out.reserve(elements.size());
  for (const auto& e : elements) out.push_back(encode(e));
  return out;
}

group_element group::random_element(secure_rng& rng) const {
  return mul_generator(random_scalar(rng));
}

group_element group::sub(const group_element& a, const group_element& b) const {
  return add(a, negate(b));
}

std::shared_ptr<const group> make_group(group_backend backend) {
  // Groups are immutable and safe for concurrent use, so one instance per
  // backend serves the whole process: every round and every test case share
  // the same comb-table/scratch caches instead of rebuilding them.
  switch (backend) {
    case group_backend::p256: {
      static const std::shared_ptr<const group> instance = make_p256_group();
      return instance;
    }
    case group_backend::toy: {
      static const std::shared_ptr<const group> instance = make_toy_group();
      return instance;
    }
  }
  throw precondition_error{"unknown group backend"};
}

}  // namespace tormet::crypto
