// Synthetic ahmia.fi onion-site index (substitute for the live search
// index — see docs/ARCHITECTURE.md, "Substitutes and scale"). The paper
// checked every successfully fetched descriptor address against ahmia's
// public index and found 56.8 % present; we build an index covering a
// configurable fraction of the service population so the same Table 7
// classification runs.
#pragma once

#include <set>
#include <span>
#include <string>

#include "src/tor/onion.h"
#include "src/util/rng.h"

namespace tormet::workload {

class ahmia_index {
 public:
  /// Indexes each address independently with probability `public_fraction`.
  [[nodiscard]] static ahmia_index make(
      std::span<const tor::onion_address> addresses, double public_fraction,
      rng& r);

  [[nodiscard]] bool contains(const tor::onion_address& addr) const {
    return indexed_.contains(addr.value);
  }
  [[nodiscard]] std::size_t size() const noexcept { return indexed_.size(); }

 private:
  std::set<std::string> indexed_;
};

}  // namespace tormet::workload
