// Synthetic Alexa top-sites list (substitute for the proprietary 2018
// snapshot — see docs/ARCHITECTURE.md, "Substitutes and scale"). The
// generated list reproduces the structure the paper's Fig 2/3 measurements
// depend on:
//   * the 2018 top-10 head (google, youtube, facebook, baidu, wikipedia,
//     yahoo, google.co.in, reddit, qq, amazon),
//   * duckduckgo at rank 342 and torproject.org at rank 10,244,
//   * sibling families (e.g. ~212 google.* entries, 3 reddit/qq entries),
//   * a TLD mix dominated by .com/.org/.net with the Fig 3 ccTLDs,
//   * category lists capped at 50 sites (the Alexa-categories measurement).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tormet::workload {

class alexa_list {
 public:
  struct params {
    std::size_t size = 1'000'000;
    std::uint64_t seed = 7;
  };

  [[nodiscard]] static alexa_list make_synthetic(const params& p);

  [[nodiscard]] std::size_t size() const noexcept { return domains_.size(); }

  /// Domain at 1-based rank.
  [[nodiscard]] const std::string& domain_at_rank(std::uint32_t rank) const;

  /// 1-based rank of a domain, if listed.
  [[nodiscard]] std::optional<std::uint32_t> rank_of(std::string_view domain) const;

  [[nodiscard]] bool contains(std::string_view domain) const {
    return rank_of(domain).has_value();
  }

  /// All list entries whose first label contains `basename` — the paper's
  /// "Alexa siblings" set construction (google -> google.com, google.de, ...).
  [[nodiscard]] std::vector<std::string> sibling_set(std::string_view basename) const;

  /// Category lists (50 sites per category, like Alexa's): category name ->
  /// member domains. amazon.com is in "shopping"; torproject.org is in no
  /// category (matching the paper's 90.6 % "no category" observation).
  [[nodiscard]] const std::vector<std::pair<std::string, std::vector<std::string>>>&
  categories() const noexcept {
    return categories_;
  }

 private:
  std::vector<std::string> domains_;  // index 0 = rank 1
  std::unordered_map<std::string, std::uint32_t> rank_index_;
  std::vector<std::pair<std::string, std::vector<std::string>>> categories_;
};

/// True when `hostname` matches `domain` exactly or is a subdomain of it
/// (www.amazon.com matches amazon.com) — the membership rule used by the
/// histogram matchers.
[[nodiscard]] bool hostname_matches_domain(std::string_view hostname,
                                           std::string_view domain);

}  // namespace tormet::workload
