// The paper's Table 1: per-24-hour action bounds defining adjacency for the
// differential-privacy guarantee. Two network traces are adjacent when they
// differ only in one user's activity and that difference stays within these
// bounds; the DP mechanisms then make adjacent traces indistinguishable.
//
// Each bound records the paper's defining activity (the reasonable daily
// behaviour that maximizes the observable action count).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tormet::dp {

/// The observable user actions the paper protects (Table 1 rows).
enum class action {
  connect_to_domain,        // exit circuit connects to a web domain
  exit_data_bytes,          // data sent/received on exit streams
  connect_from_new_ip,      // distinct client IPs seen at guards (1 day)
  connect_from_new_ip_multiday,  // distinct client IPs per day, 2+ day rounds
  create_tcp_connection,    // TCP connections to guards
  create_entry_circuit,     // circuits through an entry guard
  entry_data_bytes,         // data sent/received at the entry position
  upload_descriptor,        // onion-service descriptor uploads
  upload_new_onion_address, // distinct onion addresses in uploads
  fetch_descriptor,         // onion-service descriptor fetches
  create_rendezvous_connection,  // rendezvous circuits
  rendezvous_data_bytes,    // data on rendezvous circuits
};

/// One Table-1 row.
struct action_bound {
  action kind;
  double daily_bound;            // maximum protected daily activity
  std::string defining_activity; // "Web", "Chat", "Onionsite", or "N/A"
};

/// The full action-bound table with the paper's values (Table 1).
class action_bounds {
 public:
  /// Paper defaults: 20 domains, 400 MB exit data, 4 IPs (1 day) / 3 IPs
  /// (multi-day), 12 TCP connections, 651 circuits, 407 MB entry data,
  /// 450 descriptor uploads, 3 onion addresses, 30 fetches, 180 rendezvous
  /// connections, 400 MB rendezvous data.
  [[nodiscard]] static action_bounds paper_defaults();

  /// Returns a copy with every bound multiplied by `factor`. Used by the
  /// simulated deployment (docs/ARCHITECTURE.md, "Substitutes and scale"):
  /// at reduced network scale the absolute noise of unscaled bounds would
  /// swamp every counter, so bounds scale with the network to preserve the
  /// deployment's signal-to-noise.
  [[nodiscard]] action_bounds scaled(double factor) const;

  /// The daily bound for an action. Throws if the action is not in the table.
  [[nodiscard]] double bound(action kind) const;

  /// A bound over a multi-day measurement: `days` * daily bound, with the
  /// paper's special case for new-IP counting (4 the first day, 3 per day
  /// thereafter).
  [[nodiscard]] double bound_over_days(action kind, int days) const;

  [[nodiscard]] const std::vector<action_bound>& rows() const noexcept {
    return rows_;
  }

 private:
  std::vector<action_bound> rows_;
};

/// Human-readable action name (for tables and logs).
[[nodiscard]] std::string to_string(action kind);

/// Global privacy parameters. The paper uses epsilon = 0.3 (the value Tor
/// uses for onion-service statistics) and delta = 1e-11 (so delta/n stays
/// small for n ~ 1e6+ users).
struct privacy_params {
  double epsilon = 0.3;
  double delta = 1e-11;
};

}  // namespace tormet::dp
