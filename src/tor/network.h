// The Tor network model: clients with guard sets, circuit/stream creation,
// onion-service publish/fetch through the HSDir ring, and rendezvous —
// everything the paper's measurements observe. The model is driven by the
// workload generators (src/workload) through the primitives below; each
// primitive performs consensus-weighted relay selection and emits events at
// whichever relays observed the action.
//
// Scale: events are only materialized for relays in the observed set (the
// deployment's 16 measurement relays); all-network totals are tracked in a
// cheap ground_truth tally used to validate inference (the paper programs
// print measured estimates beside these true simulated values — in the
// real deployment the ground truth is of course unknown).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/tor/cell.h"
#include "src/tor/consensus.h"
#include "src/tor/events.h"
#include "src/tor/hsdir_ring.h"
#include "src/tor/onion.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"

namespace tormet::tor {

using client_id = std::uint32_t;
using service_id = std::uint32_t;

/// Static description of a simulated client.
struct client_profile {
  std::uint32_t ip = 0;
  std::uint32_t asn = 0;
  std::uint16_t country = 0;  // index into the workload's country table
  /// Guards this client uses (paper §5.1: 1 data guard + 2 directory guards
  /// = 3 for typical clients; promiscuous clients contact all guards).
  int num_guards = 3;
  bool promiscuous = false;
};

/// One stream to be attached to a circuit.
struct stream_spec {
  address_kind kind = address_kind::hostname;
  std::string target;           // hostname for address_kind::hostname
  std::uint16_t port = 443;
  std::uint64_t bytes = 0;      // application payload up+down
};

/// Result of a descriptor fetch.
struct fetch_result {
  fetch_outcome outcome = fetch_outcome::success;
};

/// All-network true tallies (no sampling, no noise).
struct ground_truth {
  // entry side
  std::uint64_t entry_connections = 0;
  std::uint64_t entry_circuits = 0;
  std::uint64_t entry_dir_circuits = 0;  // directory-request circuits (subset)
  std::uint64_t entry_bytes = 0;
  // exit side (stream taxonomy of Fig 1)
  std::uint64_t exit_streams_total = 0;
  std::uint64_t exit_streams_initial = 0;
  std::uint64_t initial_hostname = 0;
  std::uint64_t initial_ipv4 = 0;
  std::uint64_t initial_ipv6 = 0;
  std::uint64_t initial_hostname_web = 0;
  std::uint64_t initial_hostname_other = 0;
  std::uint64_t exit_bytes = 0;
  // onion services
  std::uint64_t descriptor_publishes = 0;
  std::uint64_t descriptor_fetches = 0;
  std::uint64_t descriptor_fetch_success = 0;
  std::uint64_t descriptor_fetch_not_found = 0;
  std::uint64_t descriptor_fetch_malformed = 0;
  // rendezvous
  std::uint64_t rend_circuits = 0;
  std::uint64_t rend_succeeded = 0;
  std::uint64_t rend_conn_closed = 0;
  std::uint64_t rend_expired = 0;
  std::uint64_t rend_payload_bytes = 0;
};

class network {
 public:
  /// Event callback: invoked for every event observed at an observed relay.
  using event_sink = std::function<void(const event&)>;

  network(consensus net, std::uint64_t seed);

  [[nodiscard]] const consensus& net() const noexcept { return consensus_; }
  [[nodiscard]] const hsdir_ring& ring() const noexcept { return ring_; }
  [[nodiscard]] const ground_truth& truth() const noexcept { return truth_; }

  /// Declares which relays are instrumented; only their events are emitted.
  void set_observed_relays(std::set<relay_id> observed);
  void set_event_sink(event_sink sink);

  // -- clients --------------------------------------------------------------
  /// Registers a client and samples its guard set (weighted, without
  /// replacement). Promiscuous clients use every guard in the consensus.
  client_id add_client(const client_profile& profile);
  [[nodiscard]] const client_profile& profile_of(client_id c) const;
  [[nodiscard]] std::span<const relay_id> guards_of(client_id c) const;
  [[nodiscard]] std::size_t client_count() const noexcept { return clients_.size(); }

  /// Client opens TCP connections: one to each of its guards (the daily
  /// reconnect behaviour is decided by the workload, which calls this the
  /// appropriate number of times).
  void connect_to_guards(client_id c, sim_time t);
  /// One TCP connection to one (uniformly chosen) guard of the client.
  void connect_once(client_id c, sim_time t);

  /// Builds a directory circuit through a random directory guard of the
  /// client and transfers `bytes` of consensus data.
  void directory_circuit(client_id c, std::uint64_t bytes, sim_time t);

  /// Builds a non-exit circuit of the given kind (chat/intro/etc.) through a
  /// random guard of the client, carrying `bytes` of payload.
  void non_exit_circuit(client_id c, circuit_kind kind, std::uint64_t bytes,
                        sim_time t);

  /// Builds a general exit circuit through the client's data guard, attaches
  /// `streams` in order (the first is the circuit's initial stream), and
  /// accounts entry/exit data. Returns the exit relay chosen.
  relay_id exit_circuit(client_id c, std::span<const stream_spec> streams,
                        sim_time t);

  // -- onion services ---------------------------------------------------------
  /// Registers an onion service; the address derives from a synthetic key.
  service_id add_onion_service();
  [[nodiscard]] const onion_address& address_of(service_id s) const;
  [[nodiscard]] std::size_t service_count() const noexcept { return services_.size(); }

  /// Publishes the service's descriptor to its 6 responsible HSDirs.
  void publish_descriptor(service_id s, std::int64_t period, sim_time t);

  /// Client fetches a descriptor by address from one responsible HSDir.
  /// `malformed` models bogus requests (they fail regardless of presence).
  fetch_result fetch_descriptor(client_id c, const onion_address& addr,
                                std::int64_t period, bool malformed, sim_time t);

  /// A rendezvous attempt at a weighted-sampled RP. Success emits two
  /// circuits at the RP (client + service side, §6.3) carrying the payload;
  /// failures emit one circuit with the failing outcome and no payload.
  void rendezvous_attempt(client_id c, rend_outcome outcome,
                          std::uint64_t payload_bytes, sim_time t);

 private:
  struct client_state {
    client_profile profile;
    std::vector<relay_id> guards;  // guards[0] is the data guard
  };
  struct service_state {
    onion_address address;
  };

  void emit(relay_id observer, sim_time t, event_body body);
  [[nodiscard]] bool observed(relay_id id) const {
    return observed_.contains(id);
  }
  [[nodiscard]] const client_state& client_at(client_id c) const;

  consensus consensus_;
  hsdir_ring ring_;
  rng rng_;
  std::set<relay_id> observed_;
  event_sink sink_;
  std::vector<client_state> clients_;
  std::vector<service_state> services_;
  /// Descriptor store: address -> latest published period (present = active).
  std::set<std::pair<std::string, std::int64_t>> published_;
  ground_truth truth_;
};

}  // namespace tormet::tor
