#include "src/cli/deployment_plan.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "src/core/instruments.h"
#include "src/util/check.h"
#include "src/util/file_io.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_gen.h"

namespace tormet::cli {

namespace {

constexpr std::string_view k_magic = "tormet-plan-v1";

[[nodiscard]] std::string_view backend_name(crypto::group_backend b) {
  return b == crypto::group_backend::toy ? "toy" : "p256";
}

[[nodiscard]] crypto::group_backend parse_backend(std::string_view s) {
  if (s == "toy") return crypto::group_backend::toy;
  if (s == "p256") return crypto::group_backend::p256;
  throw precondition_error{"unknown group backend: " + std::string{s}};
}

}  // namespace

std::string_view role_name(node_role role) {
  switch (role) {
    case node_role::psc_ts: return "psc_ts";
    case node_role::psc_cp: return "psc_cp";
    case node_role::psc_dc: return "psc_dc";
    case node_role::privcount_ts: return "privcount_ts";
    case node_role::privcount_sk: return "privcount_sk";
    case node_role::privcount_dc: return "privcount_dc";
  }
  throw invariant_error{"unhandled node_role"};
}

node_role parse_role(std::string_view name) {
  for (const auto role :
       {node_role::psc_ts, node_role::psc_cp, node_role::psc_dc,
        node_role::privcount_ts, node_role::privcount_sk,
        node_role::privcount_dc}) {
    if (role_name(role) == name) return role;
  }
  throw precondition_error{"unknown node role: " + std::string{name}};
}

const node_spec& deployment_plan::node(net::node_id id) const {
  for (const auto& n : nodes) {
    if (n.id == id) return n;
  }
  throw precondition_error{"plan has no node " + std::to_string(id)};
}

std::vector<net::node_id> deployment_plan::ids_with(node_role role) const {
  std::vector<net::node_id> out;
  for (const auto& n : nodes) {
    if (n.role == role) out.push_back(n.id);
  }
  return out;
}

std::map<net::node_id, net::tcp_endpoint> deployment_plan::endpoints() const {
  std::map<net::node_id, net::tcp_endpoint> out;
  for (const auto& n : nodes) out[n.id] = net::tcp_endpoint{n.host, n.port};
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

net::node_id deployment_plan::tally_server_id() const {
  for (const auto& n : nodes) {
    if (n.role == node_role::psc_ts || n.role == node_role::privcount_ts) {
      return n.id;
    }
  }
  throw precondition_error{"plan has no tally-server node"};
}

std::string_view workload_kind_name(workload_kind kind) {
  switch (kind) {
    case workload_kind::synthetic: return "synthetic";
    case workload_kind::trace: return "trace";
    case workload_kind::generate: return "generate";
    case workload_kind::socket: return "socket";
    case workload_kind::scenario: return "scenario";
    case workload_kind::relays: return "relays";
  }
  throw invariant_error{"unhandled workload_kind"};
}

std::string serialize_plan(const deployment_plan& plan) {
  std::ostringstream out;
  out << k_magic << "\n";
  out << "protocol " << plan.protocol << "\n";
  out << "seed " << plan.rng_seed << "\n";
  out << "round_deadline_ms " << plan.round_deadline_ms << "\n";
  out << "tally " << plan.tally_path << "\n";
  out << "workload " << workload_kind_name(plan.workload.kind);
  switch (plan.workload.kind) {
    case workload_kind::synthetic:
      break;
    case workload_kind::trace:
      out << " " << plan.workload.trace_dir;
      break;
    case workload_kind::socket:
      out << " " << plan.workload.event_port_base;
      break;
    case workload_kind::generate:
    case workload_kind::scenario:
    case workload_kind::relays: {
      // The generated kinds share one field list (see parse_plan): generate
      // spells it as separate tokens, scenario and relays as one
      // comma-joined token, relays behind a leading fleet size. The days
      // field is omitted at its default, so single-day plans serialize (and
      // hand-written ones parse) unchanged.
      const char sep = plan.workload.kind == workload_kind::generate ? ' ' : ',';
      out << " ";
      if (plan.workload.kind == workload_kind::relays) {
        out << plan.workload.relay_count << sep;
      }
      out << plan.workload.model << sep << format_double(plan.workload.scale)
          << sep << plan.workload.events << sep << plan.workload.gen_seed;
      if (plan.workload.gen_days > 1) out << sep << plan.workload.gen_days;
      break;
    }
  }
  out << "\n";
  // Omitted at the all-default single-round shape, so classic plans
  // serialize unchanged (and stay readable by pre-schedule parsers).
  if (plan.schedule_rounds != 1 ||
      plan.round_duration_s != k_measurement_round_seconds ||
      plan.round_gap_s != 0) {
    out << "schedule rounds " << plan.schedule_rounds << " duration "
        << plan.round_duration_s << " gap " << plan.round_gap_s << "\n";
  }
  if (plan.dc_grace_ms > 0) out << "dc_grace_ms " << plan.dc_grace_ms << "\n";
  // Durability keys are omitted for classic (non-durable) plans so existing
  // plan files round-trip unchanged.
  if (!plan.durable_dir.empty()) out << "durable_dir " << plan.durable_dir << "\n";
  // Ingest-shard count is a per-process tuning knob: it never changes tally
  // bytes, so single-shard plans round-trip without the key.
  if (plan.dc_shards != 1) out << "dc_shards " << plan.dc_shards << "\n";
  if (plan.dc_ingest_threads != 0) {
    out << "dc_ingest_threads " << plan.dc_ingest_threads << "\n";
  }
  // Relay sampling keeps everything by default; the key only appears when
  // a fleet actually samples, so pre-relay plans round-trip unchanged.
  if (plan.sample_prob != 1.0) {
    out << "sample_prob " << format_double(plan.sample_prob) << "\n";
  }
  if (plan.max_restarts != 5) {
    out << "max_restarts " << plan.max_restarts << "\n";
  }
  out << "psc_extractor " << plan.psc_extractor << "\n";
  for (const auto& name : plan.instruments) {
    out << "instrument " << name << "\n";
  }
  out << "items_per_dc " << plan.items_per_dc << "\n";
  out << "shared_items " << plan.shared_items << "\n";
  out << "bins " << plan.round.bins << "\n";
  out << "sensitivity " << format_double(plan.round.sensitivity) << "\n";
  out << "epsilon " << format_double(plan.privacy.epsilon) << "\n";
  out << "delta " << format_double(plan.privacy.delta) << "\n";
  out << "psc_epsilon " << format_double(plan.round.privacy.epsilon) << "\n";
  out << "psc_delta " << format_double(plan.round.privacy.delta) << "\n";
  out << "group " << backend_name(plan.round.group) << "\n";
  out << "noise_constant " << format_double(plan.round.noise_constant) << "\n";
  out << "psc_noise " << (plan.round.noise_enabled ? "on" : "off") << "\n";
  out << "privcount_noise " << (plan.privcount_noise_enabled ? "on" : "off")
      << "\n";
  for (const auto& c : plan.counters) {
    out << "counter " << c.name << " " << format_double(c.sensitivity) << " "
        << format_double(c.expected_value) << "\n";
  }
  for (const auto& n : plan.nodes) {
    out << "node " << n.id << " " << role_name(n.role) << " " << n.host << " "
        << n.port << "\n";
  }
  return out.str();
}

deployment_plan parse_plan(std::string_view text) {
  deployment_plan plan;
  plan.nodes.clear();
  plan.counters.clear();

  std::istringstream in{std::string{text}};
  std::string line;
  int line_no = 0;
  bool saw_magic = false;
  const auto fail = [&](const std::string& why) {
    throw precondition_error{"plan line " + std::to_string(line_no) + ": " + why};
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != k_magic) fail("expected header '" + std::string{k_magic} + "'");
      saw_magic = true;
      continue;
    }
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    const auto want = [&](bool ok) {
      if (!ok || ls.fail()) fail("malformed '" + key + "' entry");
    };
    if (key == "protocol") {
      ls >> plan.protocol;
      want(plan.protocol == "psc" || plan.protocol == "privcount");
    } else if (key == "seed") {
      ls >> plan.rng_seed;
      want(true);
    } else if (key == "round_deadline_ms") {
      ls >> plan.round_deadline_ms;
      want(plan.round_deadline_ms > 0);
    } else if (key == "tally") {
      // Rest of the line: tally paths may contain spaces (e.g. a TMPDIR
      // under "My Files"); all other values are single tokens.
      std::getline(ls >> std::ws, plan.tally_path);
      want(!plan.tally_path.empty());
    } else if (key == "workload") {
      std::string kind;
      ls >> kind;
      if (kind == "synthetic") {
        plan.workload = workload_spec{};
      } else if (kind == "trace") {
        plan.workload.kind = workload_kind::trace;
        // Rest of the line: directories may contain spaces, like tally.
        std::getline(ls >> std::ws, plan.workload.trace_dir);
        want(!plan.workload.trace_dir.empty());
      } else if (kind == "socket") {
        plan.workload.kind = workload_kind::socket;
        unsigned port = 0;
        ls >> port;
        want(port >= 1 && port <= 0xffff);
        plan.workload.event_port_base = static_cast<std::uint16_t>(port);
      } else if (kind == "generate" || kind == "scenario" || kind == "relays") {
        // The generated kinds share one field list, parsed and bounded here
        // for all three. generate spells it as separate tokens, scenario and
        // relays as one comma-joined token, relays behind a leading fleet
        // size:
        //   generate <model> <scale> <events> <seed> [<days>]
        //   scenario <name>,<scale>,<events>,<seed>[,<days>]
        //   relays <count>,<model>,<scale>,<events>,<seed>[,<days>]
        // Every DC process materializes the workload, so an unknown name or
        // an out-of-range field must fail the parse, not render a silently
        // different or unbounded workload.
        workload_spec& w = plan.workload;
        std::vector<std::string> fields;
        if (kind == "generate") {
          w.kind = workload_kind::generate;
          for (std::string field; ls >> field;) fields.push_back(field);
        } else {
          w.kind = kind == "scenario" ? workload_kind::scenario
                                      : workload_kind::relays;
          std::string spec;
          ls >> spec;
          want(!spec.empty());
          for (std::size_t pos = 0;;) {
            const std::size_t comma = spec.find(',', pos);
            fields.push_back(spec.substr(pos, comma - pos));
            if (comma == std::string::npos) break;
            pos = comma + 1;
          }
        }
        const std::size_t lead = w.kind == workload_kind::relays ? 1 : 0;
        if (fields.size() < lead + 4 || fields.size() > lead + 5) {
          fail(kind + " needs " + std::to_string(lead + 4) + " or " +
               std::to_string(lead + 5) + " fields, got " +
               std::to_string(fields.size()));
        }
        const auto parse_u64 = [&](std::size_t i, const char* what,
                                   std::uint64_t lo, std::uint64_t hi) {
          const std::string& field = fields[i];
          std::uint64_t v = 0;
          std::istringstream fs{field};
          fs >> v;
          if (field.empty() || field[0] == '-' || fs.fail() || !fs.eof()) {
            fail(kind + " " + what + " is not a number: '" + field + "'");
          }
          if (v < lo || v > hi) {
            fail(kind + " " + what + " must be in [" + std::to_string(lo) +
                 ", " + std::to_string(hi) + "]");
          }
          return v;
        };
        if (lead == 1) w.relay_count = parse_u64(0, "count", 1, 100'000);
        w.model = fields[lead];
        const bool scenario = w.kind == workload_kind::scenario;
        if (scenario ? !workload::is_known_scenario(w.model)
                     : !workload::is_known_trace_model(w.model)) {
          fail(std::string{scenario ? "unknown scenario '"
                                    : "unknown trace model '"} +
               w.model + "'");
        }
        std::istringstream fs{fields[lead + 1]};
        fs >> w.scale;
        if (fs.fail() || !fs.eof()) {
          fail(kind + " scale is not a number: '" + fields[lead + 1] + "'");
        }
        // Bounded so hostile plan text cannot demand a client population or
        // a simulated network beyond what generation can materialize.
        if (!(w.scale > 0.0) || w.scale > 1'000.0) {
          fail(kind + " scale must be in (0, 1000]");
        }
        w.events = parse_u64(lead + 2, "events", 1, 100'000'000);
        w.gen_seed = parse_u64(lead + 3, "seed", 0,
                               std::numeric_limits<std::uint64_t>::max());
        w.gen_days =
            fields.size() == lead + 5 ? parse_u64(lead + 4, "days", 1, 366) : 1;
      } else {
        fail("unknown workload kind '" + kind +
             "' (expected synthetic|trace|generate|socket|scenario|relays)");
      }
    } else if (key == "schedule") {
      // `schedule rounds <N> duration <s> gap <s>` — keyword-tagged so a
      // hand-edited line with swapped fields reads as an error, not as a
      // silently different schedule.
      std::string k_rounds, k_duration, k_gap;
      ls >> k_rounds >> plan.schedule_rounds >> k_duration >>
          plan.round_duration_s >> k_gap >> plan.round_gap_s;
      want(k_rounds == "rounds" && k_duration == "duration" && k_gap == "gap");
      if (plan.schedule_rounds < 1) fail("schedule needs at least one round");
      // Bounded so hostile/fuzzed plan text cannot make schedule
      // materialization hang or overflow sim-time arithmetic: <= 1000
      // rounds (~3 years of daily epochs) of at most a year each.
      constexpr std::uint32_t k_max_rounds = 1'000;
      constexpr std::int64_t k_max_window_s = 366 * k_seconds_per_day;
      if (plan.schedule_rounds > k_max_rounds) {
        fail("schedule rounds must be <= 1000");
      }
      if (plan.round_duration_s <= 0 || plan.round_duration_s > k_max_window_s) {
        fail("round duration must be in (0, 366 days]");
      }
      if (plan.round_gap_s < 0 || plan.round_gap_s > k_max_window_s) {
        fail("round gap must be in [0, 366 days]");
      }
    } else if (key == "dc_grace_ms") {
      ls >> plan.dc_grace_ms;
      // Bounded so downstream deadline arithmetic (2x grace, grace + slack)
      // stays far from int overflow; an hour dwarfs any sane straggler wait.
      want(plan.dc_grace_ms > 0 && plan.dc_grace_ms <= 3'600'000);
    } else if (key == "durable_dir") {
      // Rest of the line: directories may contain spaces, like tally.
      std::getline(ls >> std::ws, plan.durable_dir);
      want(!plan.durable_dir.empty());
    } else if (key == "dc_shards") {
      ls >> plan.dc_shards;
      want(plan.dc_shards >= 1 && plan.dc_shards <= 4096);
    } else if (key == "dc_ingest_threads") {
      ls >> plan.dc_ingest_threads;
      want(plan.dc_ingest_threads <= 256);
    } else if (key == "sample_prob") {
      ls >> plan.sample_prob;
      want(plan.sample_prob > 0.0 && plan.sample_prob <= 1.0);
    } else if (key == "max_restarts") {
      ls >> plan.max_restarts;
      want(plan.max_restarts >= 0 && plan.max_restarts <= 1'000);
    } else if (key == "psc_extractor") {
      ls >> plan.psc_extractor;
      const auto& known = core::extractor_names();
      want(std::find(known.begin(), known.end(), plan.psc_extractor) !=
           known.end());
    } else if (key == "instrument") {
      std::string name;
      ls >> name;
      const auto& known = core::instrument_names();
      want(std::find(known.begin(), known.end(), name) != known.end());
      // A repeated instrument would count every event twice per DC.
      if (std::find(plan.instruments.begin(), plan.instruments.end(), name) !=
          plan.instruments.end()) {
        fail("duplicate instrument '" + name + "'");
      }
      plan.instruments.push_back(std::move(name));
    } else if (key == "items_per_dc") {
      ls >> plan.items_per_dc;
      want(true);
    } else if (key == "shared_items") {
      ls >> plan.shared_items;
      want(true);
    } else if (key == "bins") {
      ls >> plan.round.bins;
      want(plan.round.bins >= 2);
    } else if (key == "sensitivity") {
      ls >> plan.round.sensitivity;
      want(true);
    } else if (key == "epsilon") {
      ls >> plan.privacy.epsilon;
      want(true);
    } else if (key == "delta") {
      ls >> plan.privacy.delta;
      want(true);
    } else if (key == "psc_epsilon") {
      ls >> plan.round.privacy.epsilon;
      want(true);
    } else if (key == "psc_delta") {
      ls >> plan.round.privacy.delta;
      want(true);
    } else if (key == "group") {
      std::string name;
      ls >> name;
      want(!name.empty());
      plan.round.group = parse_backend(name);
    } else if (key == "noise_constant") {
      ls >> plan.round.noise_constant;
      want(true);
    } else if (key == "psc_noise" || key == "privcount_noise") {
      std::string v;
      ls >> v;
      want(v == "on" || v == "off");
      (key == "psc_noise" ? plan.round.noise_enabled
                          : plan.privcount_noise_enabled) = v == "on";
    } else if (key == "counter") {
      privcount::counter_spec c;
      ls >> c.name >> c.sensitivity >> c.expected_value;
      want(!c.name.empty());
      // A repeated counter would split the privacy budget over a phantom
      // counter that never receives an increment.
      if (std::any_of(plan.counters.begin(), plan.counters.end(),
                      [&](const auto& o) { return o.name == c.name; })) {
        fail("duplicate counter '" + c.name + "'");
      }
      plan.counters.push_back(std::move(c));
    } else if (key == "node") {
      node_spec n;
      std::string role;
      unsigned port = 0;
      ls >> n.id >> role >> n.host >> port;
      want(!role.empty() && !n.host.empty() && port <= 0xffff);
      n.role = parse_role(role);
      n.port = static_cast<std::uint16_t>(port);
      plan.nodes.push_back(std::move(n));
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!saw_magic) throw precondition_error{"plan: missing header"};
  expects(!plan.nodes.empty(), "plan has no nodes");
  // Hand-written configs are the point of the text format — turn the
  // easiest mistakes into parse errors instead of 15-second "destination
  // unreachable" transport failures (or silent empty rounds) at run time.
  std::set<net::node_id> ids;
  std::size_t ts_count = 0;
  std::size_t dc_count = 0;
  for (const auto& n : plan.nodes) {
    if (n.port == 0) {
      throw precondition_error{"plan: node " + std::to_string(n.id) +
                               " has port 0 (every node needs a listen port)"};
    }
    if (!ids.insert(n.id).second) {
      throw precondition_error{"plan: duplicate node id " + std::to_string(n.id)};
    }
    if (n.role == node_role::psc_ts || n.role == node_role::privcount_ts) {
      ++ts_count;
    }
    if (n.role == node_role::psc_dc || n.role == node_role::privcount_dc) {
      ++dc_count;
    }
  }
  if (ts_count != 1) {
    throw precondition_error{
        "plan: needs exactly one tally-server node, has " +
        std::to_string(ts_count)};
  }
  if (plan.protocol == "privcount" && plan.counters.empty()) {
    throw precondition_error{
        "plan: a privcount round needs at least one counter line"};
  }
  if (plan.protocol == "privcount" &&
      plan.workload.kind != workload_kind::synthetic &&
      plan.instruments.empty()) {
    throw precondition_error{
        "plan: an event workload needs at least one instrument line "
        "(privcount DCs would count nothing)"};
  }
  if (plan.workload.kind == workload_kind::socket &&
      plan.workload.event_port_base + dc_count > 0x10000u) {
    throw precondition_error{
        "plan: socket workload port range exceeds 65535"};
  }
  if (plan.workload.kind == workload_kind::relays) {
    // The fleet splits evenly over the DC nodes; a ragged split would make
    // relay assignment depend on DC order, which the reference path does
    // not model.
    if (dc_count == 0 || plan.workload.relay_count < dc_count ||
        plan.workload.relay_count % dc_count != 0) {
      throw precondition_error{
          "plan: relays count (" + std::to_string(plan.workload.relay_count) +
          ") must be a positive multiple of the DC count (" +
          std::to_string(dc_count) + ")"};
    }
  }
  // The declared schedule must be admissible under the §3.1 scheduling
  // discipline; building it validates window overlap rules.
  (void)round_schedule_of(plan);
  return plan;
}

deployment_plan load_plan(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text.has_value()) throw precondition_error{"cannot read plan " + path};
  return parse_plan(*text);
}

void save_plan(const deployment_plan& plan, const std::string& path) {
  util::write_file_atomic(path, as_bytes(serialize_plan(plan)));
}

std::vector<std::string> items_for_dc(const deployment_plan& plan,
                                      net::node_id id) {
  std::vector<std::string> items;
  items.reserve(plan.items_per_dc + plan.shared_items);
  for (std::uint64_t j = 0; j < plan.items_per_dc; ++j) {
    items.push_back("dc" + std::to_string(id) + "-item-" + std::to_string(j));
  }
  for (std::uint64_t j = 0; j < plan.shared_items; ++j) {
    items.push_back("shared-item-" + std::to_string(j));
  }
  return items;
}

core::measurement_schedule round_schedule_of(const deployment_plan& plan) {
  // All rounds of one deployment measure the same statistic family, so the
  // §3.1 rule "repeats of one statistic may be adjacent" admits any gap.
  std::string statistic = plan.protocol;
  if (plan.protocol == "psc") {
    statistic += "/" + plan.psc_extractor;
  } else {
    for (const auto& name : plan.instruments) statistic += "/" + name;
  }
  return core::make_uniform_schedule(std::move(statistic), plan.schedule_rounds,
                                     plan.round_duration_s, plan.round_gap_s);
}

round_window round_window_for(const deployment_plan& plan,
                              const core::measurement_schedule& schedule,
                              std::size_t round_index) {
  if (plan.schedule_rounds <= 1) {
    return {sim_time{std::numeric_limits<std::int64_t>::min()},
            sim_time{std::numeric_limits<std::int64_t>::max()}};
  }
  expects(round_index < schedule.rounds().size(),
          "protocol round id outside the declared schedule");
  const core::planned_round& r = schedule.rounds()[round_index];
  return {r.start, r.end()};
}

std::size_t dc_index_of(const deployment_plan& plan, net::node_id id) {
  std::size_t index = 0;
  for (const auto& n : plan.nodes) {
    if (n.role != node_role::psc_dc && n.role != node_role::privcount_dc) {
      continue;
    }
    if (n.id == id) return index;
    ++index;
  }
  throw precondition_error{"node " + std::to_string(id) +
                           " is not a DC node of the plan"};
}

deployment_plan make_psc_plan(std::size_t dcs, std::size_t cps,
                              std::uint64_t bins) {
  expects(dcs >= 1 && cps >= 1, "PSC needs at least one DC and one CP");
  deployment_plan plan;
  plan.protocol = "psc";
  plan.round.bins = bins;
  net::node_id next = 0;
  plan.nodes.push_back({next++, node_role::psc_ts, "127.0.0.1", 0});
  for (std::size_t i = 0; i < cps; ++i) {
    plan.nodes.push_back({next++, node_role::psc_cp, "127.0.0.1", 0});
  }
  for (std::size_t i = 0; i < dcs; ++i) {
    plan.nodes.push_back({next++, node_role::psc_dc, "127.0.0.1", 0});
  }
  return plan;
}

deployment_plan make_privcount_plan(
    std::size_t dcs, std::size_t sks,
    std::vector<privcount::counter_spec> counters) {
  expects(dcs >= 1 && sks >= 1, "PrivCount needs at least one DC and one SK");
  expects(!counters.empty(), "PrivCount round needs counters");
  deployment_plan plan;
  plan.protocol = "privcount";
  plan.counters = std::move(counters);
  net::node_id next = 0;
  plan.nodes.push_back({next++, node_role::privcount_ts, "127.0.0.1", 0});
  for (std::size_t i = 0; i < sks; ++i) {
    plan.nodes.push_back({next++, node_role::privcount_sk, "127.0.0.1", 0});
  }
  for (std::size_t i = 0; i < dcs; ++i) {
    plan.nodes.push_back({next++, node_role::privcount_dc, "127.0.0.1", 0});
  }
  return plan;
}

}  // namespace tormet::cli
