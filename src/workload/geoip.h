// Synthetic GeoIP + autonomous-system database (substitute for MaxMind
// GeoLite2 and CAIDA pfx2as — see docs/ARCHITECTURE.md, "Substitutes and
// scale"). The 32-bit IP space is partitioned into per-country prefix
// blocks, each subdivided into AS ranges, so IP -> country and IP -> ASN
// lookups behave like the real databases. Country client-share weights
// follow the paper's Fig 4 shape (US, RU, DE lead; UAE present for the
// circuit anomaly; a long tail of small countries).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace tormet::workload {

/// Index into geoip_db::countries().
using country_index = std::uint16_t;

struct country_info {
  std::string code;       // ISO-like 2-letter code
  double client_share;    // fraction of Tor clients originating here
  std::uint32_t as_count; // ASes allocated to this country
};

class geoip_db {
 public:
  /// Builds the synthetic database: 250 countries (matching the paper's
  /// "at most 250"), ~60k ASes total (the paper's upper bound 59,597).
  [[nodiscard]] static geoip_db make_synthetic();

  [[nodiscard]] const std::vector<country_info>& countries() const noexcept {
    return countries_;
  }
  [[nodiscard]] std::size_t num_countries() const noexcept {
    return countries_.size();
  }
  [[nodiscard]] std::uint32_t total_ases() const noexcept { return total_ases_; }

  /// Country of an IP (reverse of allocate_ip).
  [[nodiscard]] country_index country_of(std::uint32_t ip) const;

  /// ASN of an IP.
  [[nodiscard]] std::uint32_t asn_of(std::uint32_t ip) const;

  /// Samples a country by client share.
  [[nodiscard]] country_index sample_country(rng& r) const;

  /// Index of a country code (throws if unknown).
  [[nodiscard]] country_index index_of(const std::string& code) const;

  /// Returns a fresh, never-before-returned IP inside the country's block
  /// (distinctness is what the unique-IP measurements count). Spread over
  /// the country's ASes by a multiplicative hash.
  [[nodiscard]] std::uint32_t allocate_ip(country_index country);

 private:
  static constexpr std::uint32_t k_block_bits = 22;  // 4M IPs per country

  std::vector<country_info> countries_;
  std::vector<double> cumulative_share_;
  std::vector<std::uint32_t> as_base_;   // first global ASN per country
  std::vector<std::uint32_t> next_ip_;   // allocation counters
  std::uint32_t total_ases_ = 0;
};

}  // namespace tormet::workload
