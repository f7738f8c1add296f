#include "sim/system.hpp"

#include <algorithm>

#include "partition/quotient.hpp"
#include "util/contracts.hpp"

namespace ffsm {

FusedSystem::FusedSystem(std::vector<Dfsm> machines,
                         const FusedSystemOptions& options)
    : originals_(std::move(machines)),
      journaling_(options.keep_event_log),
      f_(options.f) {
  FFSM_EXPECTS(!originals_.empty());
  cross_ = reachable_cross_product(originals_);

  // Originals' partitions from the tuple components.
  for (std::uint32_t i = 0; i < cross_.machine_count(); ++i)
    partitions_.emplace_back(cross_.component_assignment(i));

  // Algorithm 2 for the backups.
  GenerateOptions gen = options.generation;
  gen.f = options.f;
  FusionResult fusion = generate_fusion(cross_.top, partitions_, gen);

  servers_.reserve(originals_.size() + fusion.partitions.size());
  for (const Dfsm& m : originals_) servers_.emplace_back(m);
  for (std::size_t j = 0; j < fusion.partitions.size(); ++j)
    servers_.emplace_back(
        quotient_machine(cross_.top, fusion.partitions[j],
                         std::string("F").append(std::to_string(j + 1))));

  // Per-server mapping machine-state -> partition block. For backups the
  // quotient numbers its states by partition block, so the map is identity;
  // originals need it because Partition renumbers blocks by first
  // occurrence over top states.
  for (std::size_t i = 0; i < originals_.size(); ++i) {
    std::vector<std::uint32_t> map(originals_[i].size());
    for (State t = 0; t < cross_.top.size(); ++t)
      map[cross_.tuples[t][i]] = partitions_[i].block_of(t);
    state_to_block_.push_back(std::move(map));
  }
  for (const Partition& p : fusion.partitions) {
    std::vector<std::uint32_t> identity(p.block_count());
    for (std::uint32_t b = 0; b < p.block_count(); ++b) identity[b] = b;
    state_to_block_.push_back(std::move(identity));
  }

  partitions_.insert(partitions_.end(),
                     std::make_move_iterator(fusion.partitions.begin()),
                     std::make_move_iterator(fusion.partitions.end()));
  ghost_ = cross_.top.initial();

  // The routing table: EventId -> top event position -> every server's
  // local index of that event.
  const std::span<const EventId> events = cross_.top.events();
  event_position_.assign(static_cast<std::size_t>(events.back()) + 1,
                         kIgnoredEvent);
  for (std::uint32_t p = 0; p < events.size(); ++p)
    event_position_[events[p]] = p;
  const std::size_t servers = servers_.size();
  local_.assign(events.size() * servers, kIgnoredEvent);
  for (std::size_t i = 0; i < servers; ++i) {
    const std::vector<std::uint32_t> positions =
        local_event_positions(servers_[i].machine(), events);
    std::size_t routed = 0;
    for (std::size_t p = 0; p < events.size(); ++p) {
      local_[p * servers + i] = positions[p];
      routed += positions[p] != kIgnoredEvent;
    }
    // No server subscribes to an event the top ignores.
    FFSM_ENSURES(routed == servers_[i].machine().events().size());
  }
}

void FusedSystem::apply(EventId event) {
  if (journaling_) log_.append(event);
  if (event >= event_position_.size()) return;
  const std::uint32_t position = event_position_[event];
  if (position == kIgnoredEvent) return;
  ghost_ = cross_.top.step_local(ghost_, position);
  const std::uint32_t* row = local_.data() + position * servers_.size();
  for (std::size_t i = 0; i < servers_.size(); ++i)
    if (row[i] != kIgnoredEvent) servers_[i].apply_local(row[i]);
}

std::size_t FusedSystem::run(EventSource& source) {
  std::size_t delivered = 0;
  while (const auto event = source.next()) {
    apply(*event);
    ++delivered;
  }
  return delivered;
}

void FusedSystem::crash(std::size_t server) {
  FFSM_EXPECTS(server < servers_.size());
  servers_[server].crash();
}

State FusedSystem::project(std::size_t server, State top_state) const {
  if (server < originals_.size()) return cross_.tuples[top_state][server];
  // Backup machine states are partition blocks.
  return partitions_[server].block_of(top_state);
}

std::uint32_t FusedSystem::block_of_state(std::size_t server,
                                          State machine_state) const {
  return state_to_block_[server][machine_state];
}

void FusedSystem::corrupt(std::size_t server, ByzantineStrategy strategy,
                          Xoshiro256& rng, State colluding_target) {
  FFSM_EXPECTS(server < servers_.size());
  Server& victim = servers_[server];
  FFSM_EXPECTS(!victim.crashed());
  const State truth = victim.state();
  const std::uint32_t machine_size = victim.machine().size();

  switch (strategy) {
    case ByzantineStrategy::kRandomState: {
      if (machine_size == 1) return;  // nothing wrong to adopt
      State wrong = static_cast<State>(rng.below(machine_size - 1));
      if (wrong >= truth) ++wrong;  // uniform over states != truth
      victim.corrupt(wrong);
      return;
    }
    case ByzantineStrategy::kStaleInitial:
      victim.corrupt(victim.machine().initial());
      return;
    case ByzantineStrategy::kColluding:
      FFSM_EXPECTS(colluding_target < cross_.top.size());
      victim.corrupt(project(server, colluding_target));
      return;
  }
  FFSM_ASSERT(false);
}

State FusedSystem::most_confusable_state() const {
  // The wrong top state whose projections currently collect the most votes:
  // count support among live servers for every t != ghost.
  State best = ghost_;
  std::uint32_t best_count = 0;
  for (State t = 0; t < cross_.top.size(); ++t) {
    if (t == ghost_) continue;
    std::uint32_t count = 0;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i].crashed()) continue;
      if (block_of_state(i, servers_[i].state()) ==
          partitions_[i].block_of(t))
        ++count;
    }
    if (best == ghost_ || count > best_count) {
      best = t;
      best_count = count;
    }
  }
  // A single-state top has no wrong state; report the only state there is.
  return best;
}

std::vector<MachineReport> FusedSystem::reports() const {
  std::vector<MachineReport> result;
  result.reserve(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i].crashed())
      result.push_back(MachineReport::crashed());
    else
      result.push_back(
          MachineReport::of(block_of_state(i, servers_[i].state())));
  }
  return result;
}

RecoveryResult FusedSystem::recover() {
  const std::vector<MachineReport> current = reports();
  RecoveryResult result = ffsm::recover(cross_.top.size(), partitions_,
                                        current);
  if (result.unique) {
    for (std::size_t i = 0; i < servers_.size(); ++i)
      servers_[i].restore(project(i, result.top_state));
  }
  return result;
}

State FusedSystem::recover_via_replay(std::size_t server) {
  FFSM_EXPECTS(server < servers_.size());
  FFSM_EXPECTS(journaling_);
  const State recovered =
      replay_recover(servers_[server].machine(), log_);
  servers_[server].restore(recovered);
  return recovered;
}

bool FusedSystem::verify() const {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i].crashed()) return false;
    if (servers_[i].state() != project(i, ghost_)) return false;
  }
  return true;
}

std::uint64_t FusedSystem::dropped_events() const {
  std::uint64_t total = 0;
  for (const Server& server : servers_) total += server.dropped_events();
  return total;
}

ScenarioResult run_scenario(FusedSystem& system, EventSource& events,
                            std::span<const PlannedFault> plan,
                            ByzantineStrategy strategy, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ScenarioResult result;
  std::size_t next_fault = 0;

  const auto inject_due = [&](std::size_t step) {
    while (next_fault < plan.size() && plan[next_fault].step <= step) {
      const PlannedFault& fault = plan[next_fault];
      if (fault.byzantine) {
        const State target = strategy == ByzantineStrategy::kColluding
                                 ? system.most_confusable_state()
                                 : State{0};
        system.corrupt(fault.server, strategy, rng, target);
      } else {
        system.crash(fault.server);
      }
      ++result.faults_injected;
      ++next_fault;
    }
  };

  inject_due(0);
  while (const auto event = events.next()) {
    system.apply(*event);
    ++result.events_delivered;
    inject_due(result.events_delivered);
  }

  result.events_dropped = system.dropped_events();
  const RecoveryResult recovery = system.recover();
  result.recovery_unique = recovery.unique;
  result.recovered_correctly =
      recovery.unique && recovery.top_state == system.ghost_top_state();
  result.verified = system.verify();
  return result;
}

}  // namespace ffsm
