// PrivCount tally server (TS): configures rounds, splits the privacy budget
// into per-counter noise levels, and aggregates DC reports with SK blinding
// sums. The TS learns only the blinded aggregates — the final value it
// publishes is `true count + Gaussian noise`, never anything per-relay.
//
// Round life cycle (driven by the deployment or a test):
//   begin_round() -> [transport] -> all_dcs_ready()
//   start_collection() ... events flow into DCs ... stop_collection()
//   -> [transport] -> request_reveal()   (names the DCs that reported,
//                                         making DC dropout recoverable)
//   -> [transport] -> results_ready() -> results()
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "src/dp/action_bounds.h"
#include "src/net/transport.h"
#include "src/privcount/messages.h"

namespace tormet::privcount {

class tally_server {
 public:
  tally_server(net::node_id self, net::transport& transport,
               std::vector<net::node_id> data_collectors,
               std::vector<net::node_id> share_keepers);

  void handle_message(const net::message& msg);

  /// Disables noise (sigma = 0) — for tests that verify exact blinded
  /// aggregation. Production rounds always add noise.
  void set_noise_enabled(bool enabled) noexcept { noise_enabled_ = enabled; }

  /// Configures a new round: allocates (ε, δ) across `specs` with the
  /// equal-relative-noise rule and sends configure messages. Rejects a
  /// repeated counter name.
  void begin_round(const std::vector<counter_spec>& specs,
                   const dp::privacy_params& params);

  [[nodiscard]] bool all_dcs_ready() const;
  void start_collection();
  void stop_collection();

  /// Crash recovery: positions the round counter so the next begin_round
  /// runs as round `next_round` (1-based). Used by a restarted TS resuming
  /// its schedule after op-log replay, and by a durable TS retrying the
  /// same round after a peer crash (per-round RNG reseeding makes a re-run
  /// byte-identical to the interrupted attempt).
  void resume_at_round(std::uint32_t next_round);

  /// After DC reports have arrived: asks SKs to reveal blinding sums over
  /// exactly the DCs that reported.
  void request_reveal();

  [[nodiscard]] bool results_ready() const;
  /// Aggregated (noisy) results. Throws unless results_ready().
  [[nodiscard]] std::vector<counter_result> results() const;

  /// DCs that reported this round (diagnostics; equals all DCs absent
  /// failures).
  [[nodiscard]] const std::set<net::node_id>& reporting_dcs() const noexcept {
    return dc_reports_seen_;
  }
  /// DCs that acknowledged this round's configure.
  [[nodiscard]] const std::set<net::node_id>& ready_dcs() const noexcept {
    return dcs_ready_;
  }
  /// The DCs this TS still drives (initial list minus exclusions).
  [[nodiscard]] const std::vector<net::node_id>& data_collectors()
      const noexcept {
    return dcs_;
  }
  /// Permanently drops a DC from the deployment (live-pipeline fault
  /// handling): it receives no further configures or collection controls
  /// and no longer counts toward readiness/report completeness. Published
  /// sigmas still reflect the noise weights of the round's *configured* DC
  /// count, so mid-round exclusion keeps CIs honest. At least one DC must
  /// remain.
  void exclude_dc(net::node_id id);
  /// Rejoin handshake: re-admits a previously excluded (or restarted) DC at
  /// a round boundary — from the next begin_round it is configured again
  /// and counts toward sigma/DC accounting (round_dc_count_ snapshots at
  /// begin_round, so re-admission never skews an in-flight round's noise
  /// fraction). No-op if the DC is already a member.
  void readmit_dc(net::node_id id);
  [[nodiscard]] std::uint32_t round_id() const noexcept { return round_id_; }

 private:
  /// True when `dc` is still part of the deployment (not excluded).
  [[nodiscard]] bool is_member(net::node_id dc) const;
  /// aggregate_[i] += values[i] over the whole report (ring addition).
  void combine_report(std::span<const std::uint64_t> values);

  net::node_id self_;
  net::transport& transport_;
  std::vector<net::node_id> dcs_;
  std::vector<net::node_id> sks_;
  bool noise_enabled_ = true;

  std::uint32_t round_id_ = 0;
  std::vector<std::string> counter_names_;
  std::vector<double> sigmas_;
  /// DC count the round was configured with (noise_weight = 1/this); kept
  /// apart from dcs_.size() so mid-round exclusion cannot skew the realized
  /// noise fraction in results().
  std::size_t round_dc_count_ = 0;
  bool reveal_requested_ = false;
  std::set<net::node_id> dcs_ready_;
  std::set<net::node_id> dc_reports_seen_;
  std::set<net::node_id> sk_reports_seen_;
  std::vector<std::uint64_t> aggregate_;  // ring sum of DC values + SK sums
};

}  // namespace tormet::privcount
