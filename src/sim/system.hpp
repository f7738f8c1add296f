// FusedSystem: the end-to-end distributed system of the paper's model.
//
// Construction wires the full pipeline: reachable cross product of the n
// originals -> Algorithm 2 generates the backup machines for the requested
// tolerance -> n + m servers spawn. Running the system delivers one ordered
// event stream to every server while a "ghost" copy of the top tracks the
// true global state for verification (the simulator's replacement for the
// paper's failure-free oracle). Crash and Byzantine faults hit individual
// servers; recover() executes Algorithm 3 over the survivors' reports and
// reinstalls every server's correct state.
//
// Delivery goes through one routing table built at construction: an array
// from EventId to the event's position in top().events(), and per position
// a row with every server's local index of that event, in server order, or
// kIgnoredEvent for a server that ignores it. The ghost steps by the top's
// position, each subscriber by its local index (Server::apply_local, the
// servers' one stepping path), and a server that ignores the event is never
// touched — the paper's §2 rule that a server ignores events outside its
// event set, resolved once per system instead of once per event and server.
// Every server's events are a subset of the top's (the originals' by the
// cross product's union, the backups' because they are quotients of the
// top), so an id the top does not subscribe to, or one interned after
// construction, concerns no server.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fsm/dfsm.hpp"
#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "partition/partition.hpp"
#include "recovery/recovery.hpp"
#include "sim/event_log.hpp"
#include "sim/event_source.hpp"
#include "sim/fault_injector.hpp"
#include "sim/server.hpp"
#include "util/rng.hpp"

namespace ffsm {

struct FusedSystemOptions {
  /// Crash-fault tolerance target f. For Byzantine tolerance of b faults
  /// pass f = 2*b (Theorem 2).
  std::uint32_t f = 1;
  /// Journal every delivered event (enables replay-based recovery as a
  /// cross-check / fallback; costs one EventId append per event).
  bool keep_event_log = false;
  GenerateOptions generation = {};
};

class FusedSystem {
 public:
  /// Builds cross product + fusion backups for `machines` and spawns the
  /// servers.
  FusedSystem(std::vector<Dfsm> machines, const FusedSystemOptions& options);

  [[nodiscard]] std::uint32_t original_count() const noexcept {
    return static_cast<std::uint32_t>(originals_.size());
  }
  [[nodiscard]] std::uint32_t backup_count() const noexcept {
    return static_cast<std::uint32_t>(servers_.size() - originals_.size());
  }
  [[nodiscard]] std::uint32_t fault_tolerance() const noexcept { return f_; }

  [[nodiscard]] const Dfsm& top() const noexcept { return cross_.top; }
  [[nodiscard]] const CrossProduct& cross_product() const noexcept {
    return cross_;
  }
  [[nodiscard]] std::span<const Partition> partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] std::span<const Server> servers() const noexcept {
    return servers_;
  }

  /// Fault-free reference state of the top (the simulator's oracle).
  [[nodiscard]] State ghost_top_state() const noexcept { return ghost_; }

  /// Delivers one event to every server that subscribes to it (and the
  /// ghost); journals it first when keep_event_log is set.
  void apply(EventId event);

  /// Pumps the source dry; returns the number of events delivered.
  std::size_t run(EventSource& source);

  /// Crash fault on server i.
  void crash(std::size_t server);

  /// Byzantine fault on server i under the given strategy. For kColluding
  /// the corrupt state projects `colluding_target` (pass the value of
  /// most_confusable_state()).
  void corrupt(std::size_t server, ByzantineStrategy strategy, Xoshiro256& rng,
               State colluding_target = 0);

  /// Wrong top state whose projection currently enjoys the most support —
  /// the colluding adversary's best target.
  [[nodiscard]] State most_confusable_state() const;

  /// Current reports of all servers (block per partition; crashed = no
  /// report).
  [[nodiscard]] std::vector<MachineReport> reports() const;

  /// Algorithm 3 over the current reports; when the vote is unique, every
  /// server (crashed, lying or healthy) is restored to its correct state.
  RecoveryResult recover();

  /// True iff every live server's state matches the ghost's projection.
  [[nodiscard]] bool verify() const;

  /// Subscribed events dropped by crashed servers so far, summed over all
  /// servers (see Server::dropped_events). A scenario whose environment
  /// quiesces while servers are down can assert this stays 0; a non-zero
  /// value quantifies how much stream each crash silently lost.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// The event journal (empty unless options.keep_event_log was set).
  [[nodiscard]] const EventLog& event_log() const noexcept { return log_; }

  /// Replay-based recovery of one server from the journal (requires
  /// keep_event_log). Restores the server and returns its recovered state.
  /// The fusion path (recover()) is the paper's mechanism; this is the
  /// journaling baseline for comparison and belt-and-braces deployments.
  State recover_via_replay(std::size_t server);

 private:
  /// Machine state of server i when the top is in state t.
  [[nodiscard]] State project(std::size_t server, State top_state) const;
  /// Partition block of server i given its machine state.
  [[nodiscard]] std::uint32_t block_of_state(std::size_t server,
                                             State machine_state) const;

  std::vector<Dfsm> originals_;
  CrossProduct cross_;
  std::vector<Partition> partitions_;          // n originals then m backups
  std::vector<std::vector<std::uint32_t>> state_to_block_;  // per server
  std::vector<Server> servers_;
  // The routing table holds indices, not pointers, so the system stays
  // copyable and movable. event_position_[e] = position of EventId e in
  // top().events(), or kIgnoredEvent; sized by the top's largest EventId.
  std::vector<std::uint32_t> event_position_;
  // local_[p * servers + i] = server i's local index of top event p, or
  // kIgnoredEvent when server i ignores it.
  std::vector<std::uint32_t> local_;
  EventLog log_;
  bool journaling_ = false;
  State ghost_ = 0;
  std::uint32_t f_ = 0;
};

/// One full scenario: stream events, inject planned faults, recover, verify.
struct ScenarioResult {
  std::size_t events_delivered = 0;
  std::size_t faults_injected = 0;
  /// Subscribed events crashed servers dropped during the stream
  /// (system-wide total at scenario end; 0 == the crashed servers saw a
  /// quiescent environment).
  std::uint64_t events_dropped = 0;
  bool recovery_unique = false;
  bool recovered_correctly = false;  // recovered top == ghost top
  bool verified = false;             // all servers correct post-recovery
};

[[nodiscard]] ScenarioResult run_scenario(FusedSystem& system,
                                          EventSource& events,
                                          std::span<const PlannedFault> plan,
                                          ByzantineStrategy strategy,
                                          std::uint64_t seed);

}  // namespace ffsm
